//! End-to-end and wire-protocol tests for the `nav-net` TCP front.
//!
//! Three layers, per the serving contract:
//!
//! 1. **Codec properties** — arbitrary request/response/error frames
//!    round-trip the encoder/decoder bit-for-bit, and mutated byte
//!    streams decode to typed errors, never panics or over-allocation
//!    (the hand-written truncation/bad-magic/bad-version/oversized cases
//!    live next to the codec, in `crates/net/src/frame.rs`).
//! 2. **Loopback end-to-end** — an in-process server on an ephemeral
//!    port, driven by N concurrent client threads, answers every stream
//!    **bit-identically** to a direct [`run_trials`] / local engine over
//!    the same seeds — under both admission policies, interleaved
//!    connections, and mid-stream client disconnects.
//! 3. **Typed refusals** — wrong handle, oversized batch, bad endpoints
//!    and a batch whose sampler panics come back as error frames, and the
//!    connection (and engine) keep working afterwards.
//!
//! Thread counts come from `NAV_TEST_THREADS` ([`nav_par::test_threads`]),
//! case counts from `PROPTEST_CASES` — both pinned in CI.

use navigability::core::sampler::SamplerMode;
use navigability::core::trial::{run_trials, PairStats, TrialConfig};
use navigability::core::uniform::UniformScheme;
use navigability::core::{FailurePlan, FaultConfig};
use navigability::engine::{AdmissionPolicy, Engine, EngineConfig, QueryBatch};
use navigability::net::{
    frames_bits_eq, ErrorCode, ErrorFrame, Frame, FrameError, MetricsSnapshot, NetClient,
    NetConfig, NetError, NetServer, Request, Response, RetryPolicy, RetryingClient, ServerHandle,
    StatsReply,
};
use navigability::obs::{ObsConfig, QueryTrace, Registry, Stage};
use navigability::par::test_threads;
use navigability::prelude::*;
use proptest::prelude::*;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

// --- 1. codec properties ------------------------------------------------

fn arb_request() -> impl Strategy<Value = Frame> {
    (
        0u32..8,
        0u64..u64::MAX,
        0u8..2,
        proptest::collection::vec((0u32..5000, 0u32..5000, 0u32..100), 0..48),
    )
        .prop_map(|(handle, rng_base, mode, qs)| {
            Frame::Request(Request {
                handle,
                rng_base,
                sampler: if mode == 0 {
                    SamplerMode::Scalar
                } else {
                    SamplerMode::Batched
                },
                queries: qs
                    .into_iter()
                    .map(|(s, t, trials)| navigability::engine::Query {
                        s,
                        t,
                        trials: trials as usize,
                    })
                    .collect(),
            })
        })
}

fn arb_response() -> impl Strategy<Value = Frame> {
    let stats = (
        (0u32..1000, 0u32..1000, 0u32..10000, 0u32..10000),
        0u64..1000,
        // Raw bit patterns: NaNs, infinities and subnormals must all
        // survive the wire (floats travel as bits).
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(|((s, t, dist, max_steps), failures, (a, b, c))| PairStats {
            s,
            t,
            dist,
            max_steps,
            failures: failures as usize,
            mean_steps: f64::from_bits(a),
            std_steps: f64::from_bits(b),
            mean_long_links: f64::from_bits(c),
        });
    (
        proptest::collection::vec(stats, 0..32),
        proptest::collection::vec(0u64..u64::MAX, 16..17),
    )
        .prop_map(|(answers, m)| {
            Frame::Response(Response {
                answers,
                metrics: MetricsSnapshot {
                    queries: m[0],
                    batches: m[1],
                    trials: m[2],
                    warm_targets: m[3],
                    cold_targets: m[4],
                    cache_hits: m[5],
                    cache_misses: m[6],
                    cache_evictions: m[7],
                    cache_resident_rows: m[8],
                    cache_resident_bytes: m[9],
                    cache_capacity_bytes: m[10],
                    dropped_links: m[11],
                    rerouted_hops: m[12],
                    epoch_flips: m[13],
                    timeout_setup_failures: m[14],
                    cache_rejected_rows: m[15],
                },
            })
        })
}

fn arb_error() -> impl Strategy<Value = Frame> {
    (1u16..8, proptest::collection::vec(32u8..127, 0..80)).prop_map(|(code, msg)| {
        Frame::Error(ErrorFrame {
            code: match code {
                1 => ErrorCode::UnknownHandle,
                2 => ErrorCode::TooManyQueries,
                3 => ErrorCode::InvalidEndpoint,
                4 => ErrorCode::UnexpectedFrame,
                5 => ErrorCode::Internal,
                6 => ErrorCode::Overloaded,
                _ => ErrorCode::InvalidQuery,
            },
            message: String::from_utf8(msg).expect("ascii"),
        })
    })
}

fn arb_stats() -> impl Strategy<Value = Frame> {
    (
        0u64..1000,
        0usize..60,
        1u64..64,
        proptest::collection::vec((0u64..4096, 0u32..5000, 0u32..5000), 0..20),
    )
        .prop_map(|(seed, stage_samples, every, traces)| {
            let mut reg = Registry::new(
                ObsConfig {
                    stages: true,
                    trace_every: every,
                    trace_capacity: 16,
                },
                seed,
            );
            for i in 0..stage_samples {
                let stage = Stage::ALL[(seed as usize + i) % Stage::ALL.len()];
                let v = ((seed.wrapping_mul(i as u64 + 1) % 100_000) as f64) * 0.01;
                reg.stages_mut().record(stage, v);
            }
            for (index, s, t) in traces {
                reg.record_trace(QueryTrace {
                    index,
                    s,
                    t,
                    cache_hit: index % 2 == 0,
                    trials: 3,
                    trials_ms: 0.25 * (s as f64 + 1.0),
                    // Shifted past 32 bits every few traces: the wire
                    // must carry full-width counters (since v4).
                    dropped_links: (s as u64 % 5) << (8 * (index % 5)),
                    rerouted_hops: (t as u64 % 3) << (8 * (s as u64 % 5)),
                });
            }
            Frame::Stats(StatsReply {
                metrics: MetricsSnapshot {
                    queries: seed,
                    batches: seed / 7,
                    ..MetricsSnapshot::default()
                },
                obs: reg.snapshot(),
            })
        })
}

fn roundtrips(frame: &Frame) {
    let bytes = frame.encode();
    let (back, used) = Frame::decode(&bytes, bytes.len()).expect("own encoding decodes");
    assert_eq!(used, bytes.len());
    assert!(frames_bits_eq(frame, &back), "{frame:?} != {back:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_frames_roundtrip(frame in arb_request()) {
        roundtrips(&frame);
    }

    #[test]
    fn response_frames_roundtrip(frame in arb_response()) {
        roundtrips(&frame);
    }

    #[test]
    fn error_frames_roundtrip(frame in arb_error()) {
        roundtrips(&frame);
    }

    #[test]
    fn stats_frames_roundtrip(frame in arb_stats()) {
        roundtrips(&frame);
    }

    #[test]
    fn mutated_stats_frames_never_panic_or_overallocate(
        frame in arb_stats(),
        pos_seed in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        // Same totality property as for requests, on the much richer
        // stats payload: corrupted stage ids, bucket counts, histogram
        // scalars, and trace fields must decode or refuse — and whatever
        // decodes must survive quantile/summary/render calls (no panics
        // from forged min > max or empty histograms).
        let mut bytes = frame.encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte;
        match Frame::decode(&bytes, 1 << 20) {
            Ok((Frame::Stats(reply), used)) => {
                prop_assert!(used <= bytes.len());
                for (_, h) in &reply.obs.stages {
                    prop_assert!(!h.is_empty());
                    let _ = h.quantile(0.5);
                    let _ = h.summary();
                }
                let mut text = String::new();
                reply.obs.render_text(&mut text);
                let _ = reply.obs.to_json();
            }
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(
                FrameError::Truncated
                | FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::BadKind(_)
                | FrameError::Oversized { .. }
                | FrameError::Malformed(_),
            ) => {}
        }
    }

    #[test]
    fn mutated_frames_never_panic_or_overallocate(
        frame in arb_request(),
        pos_seed in 0usize..10_000,
        byte in 0u8..=255,
    ) {
        // Single-byte corruption anywhere in a valid frame must yield
        // Ok(decoded) or a typed error — decode is total. The 1 KiB bound
        // also caps what a corrupted length field can make us allocate.
        let mut bytes = frame.encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte;
        match Frame::decode(&bytes, 1024) {
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(
                FrameError::Truncated
                | FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::BadKind(_)
                | FrameError::Oversized { .. }
                | FrameError::Malformed(_),
            ) => {}
        }
    }

    #[test]
    fn truncated_frames_always_rejected(frame in arb_request(), cut_seed in 0usize..10_000) {
        let bytes = frame.encode();
        let cut = cut_seed % bytes.len();
        prop_assert_eq!(
            Frame::decode(&bytes[..cut], bytes.len()).unwrap_err(),
            FrameError::Truncated
        );
    }
}

// --- 2. loopback end-to-end ----------------------------------------------

/// A small connected world to serve: G(n, p) with components bridged.
fn world(n: usize, seed: u64) -> Graph {
    let mut rng = seeded_rng(seed);
    let g = navigability::gen::random::gnp(n, 6.0 / n as f64, &mut rng).expect("gnp");
    navigability::graph::components::connect_components(g).0
}

fn spawn_server(g: &Graph, seed: u64, admission: AdmissionPolicy, net: NetConfig) -> ServerHandle {
    let engine = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed,
            threads: 1,
            cache_bytes: 1 << 20,
            admission,
            ..EngineConfig::default()
        },
    );
    NetServer::bind(engine, net, "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn")
}

fn identical(a: &[PairStats], b: &[PairStats]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
}

/// The pair stream client `c` replays (distinct per client).
fn client_pairs(g: &Graph, c: u64, len: usize) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as NodeId;
    (0..len as u64)
        .map(|i| {
            (
                ((c * 31 + i * 7) % n as u64) as NodeId,
                ((c * 17 + i * 13 + 1) % n as u64) as NodeId,
            )
        })
        .collect()
}

/// Replays `pairs` in batches of `batch` over a fresh connection,
/// asserting every answer against the local reference.
fn replay_and_check(addr: std::net::SocketAddr, g: &Graph, seed: u64, c: u64, batch: usize) {
    let pairs = client_pairs(g, c, 24);
    let reference = run_trials(
        g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: 3,
            seed,
            threads: 1,
            ..TrialConfig::default()
        },
    )
    .expect("valid pairs");
    let mut client = NetClient::connect(addr).expect("connect");
    let mut answers = Vec::new();
    for chunk in pairs.chunks(batch) {
        let (a, _) = client
            .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(chunk, 3))
            .expect("serve");
        answers.extend(a);
    }
    assert!(
        identical(&answers, &reference.pairs),
        "client {c} diverged from run_trials"
    );
}

#[test]
fn loopback_single_client_matches_run_trials_under_both_policies() {
    let g = world(96, 5);
    for admission in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
        let server = spawn_server(&g, 42, admission, NetConfig::default());
        let addr = server.addr();
        replay_and_check(addr, &g, 42, 0, 5);
        server.shutdown();
    }
}

#[test]
fn concurrent_clients_each_match_run_trials() {
    // N threads share one server; each stamps its own rng_base stream, so
    // each stream must reproduce its local reference regardless of how
    // the server interleaves them — at two different client thread
    // counts and under both admission policies.
    let g = world(80, 9);
    for admission in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
        for clients in [2usize, 2 * test_threads()] {
            let server = spawn_server(
                &g,
                7,
                admission,
                NetConfig {
                    workers: clients,
                    ..NetConfig::default()
                },
            );
            let addr = server.addr();
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let g = &g;
                    scope.spawn(move || replay_and_check(addr, g, 7, c as u64, 4));
                }
            });
            server.shutdown();
        }
    }
}

#[test]
fn midstream_disconnects_do_not_poison_the_server() {
    use std::io::Write;
    let g = world(64, 3);
    let server = spawn_server(
        &g,
        13,
        AdmissionPolicy::Segmented,
        NetConfig {
            workers: 4,
            ..NetConfig::default()
        },
    );
    let addr = server.addr();
    std::thread::scope(|scope| {
        // Saboteurs: partial headers, truncated payloads, raw garbage —
        // then vanish.
        for k in 0..6u8 {
            scope.spawn(move || {
                let mut s = std::net::TcpStream::connect(addr).expect("connect");
                match k % 3 {
                    0 => {
                        // Half a header.
                        let _ = s.write_all(
                            &Frame::encode(&Frame::Request(Request {
                                handle: 0,
                                rng_base: 0,
                                sampler: SamplerMode::Scalar,
                                queries: vec![],
                            }))[..7],
                        );
                    }
                    1 => {
                        // A valid header whose payload never arrives.
                        let full = Frame::Request(Request {
                            handle: 0,
                            rng_base: 0,
                            sampler: SamplerMode::Scalar,
                            queries: vec![navigability::engine::Query {
                                s: 0,
                                t: 1,
                                trials: 1,
                            }],
                        })
                        .encode();
                        let _ = s.write_all(&full[..14]);
                    }
                    _ => {
                        // Garbage magic: the server answers a typed error
                        // and hangs up.
                        let _ = s.write_all(b"GETS / HTTP/1.1\r\n\r\n");
                    }
                }
                // Drop the stream mid-conversation.
            });
        }
        // Honest clients interleaved with the chaos still get exact
        // answers.
        for c in 0..3 {
            let g = &g;
            scope.spawn(move || replay_and_check(addr, g, 13, c, 3));
        }
    });
    // And the server still serves a fresh connection afterwards.
    replay_and_check(addr, &g, 13, 99, 6);
    server.shutdown();
}

#[test]
fn tcp_stream_is_bit_identical_to_local_engine_across_batch_splits() {
    // One client stream split one way must equal a *local* engine serving
    // the same queries split another way — the serve/serve_at
    // equivalence surviving the wire.
    let g = world(72, 21);
    let pairs = client_pairs(&g, 5, 30);
    let mut local = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed: 77,
            threads: 1,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        },
    );
    let mut want = Vec::new();
    for chunk in pairs.chunks(11) {
        want.extend(
            local
                .serve(&QueryBatch::from_pairs(chunk, 2))
                .expect("local")
                .answers,
        );
    }
    let server = spawn_server(&g, 77, AdmissionPolicy::Lru, NetConfig::default());
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let mut got = Vec::new();
    for chunk in pairs.chunks(4) {
        let (a, _) = client
            .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(chunk, 2))
            .expect("serve");
        got.extend(a);
    }
    assert_eq!(client.queries_sent(), 30);
    drop(client);
    server.shutdown();
    assert!(identical(&want, &got));
}

#[test]
fn stats_frame_reports_stages_and_traces_over_loopback() {
    // The ops surface end to end: serve a few batches, then ask the
    // same server for its stats frame and check every layer of it —
    // counters, engine pipeline stages, the front's wire stages, and
    // the sampled traces — plus both renderings.
    let g = world(64, 33);
    let engine = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed: 5,
            threads: 2,
            cache_bytes: 1 << 20,
            obs: ObsConfig {
                stages: true,
                trace_every: 1,
                trace_capacity: 64,
            },
            ..EngineConfig::default()
        },
    );
    let server = NetServer::bind(engine, NetConfig::default(), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let pairs = client_pairs(&g, 1, 20);
    for chunk in pairs.chunks(5) {
        client
            .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(chunk, 2))
            .expect("serve");
    }
    let reply = client.stats(0).expect("stats");
    assert_eq!(reply.metrics.queries, 20);
    assert_eq!(reply.metrics.batches, 4);
    // Engine pipeline stages: one sample per served batch.
    for stage in [Stage::Admission, Stage::CacheLookup, Stage::Trials] {
        let h = reply
            .obs
            .stage(stage)
            .unwrap_or_else(|| panic!("{} stage missing", stage.label()));
        assert_eq!(h.count(), 4, "{} samples", stage.label());
        assert!(h.summary().is_some());
    }
    // Wire stages recorded by the serving front: at least recv+send per
    // request frame already answered.
    for stage in [Stage::Socket, Stage::Decode, Stage::Encode] {
        let h = reply
            .obs
            .stage(stage)
            .unwrap_or_else(|| panic!("{} stage missing", stage.label()));
        assert!(h.count() >= 4, "{} samples", stage.label());
    }
    // 1-in-1 sampling traced every query, in lifetime-index order.
    assert_eq!(reply.obs.trace_every, 1);
    assert_eq!(reply.obs.traces_recorded, 20);
    assert_eq!(reply.obs.traces.len(), 20);
    for (i, t) in reply.obs.traces.iter().enumerate() {
        assert_eq!(t.index, i as u64);
        assert_eq!((t.s, t.t), (pairs[i].0, pairs[i].1));
    }
    // Both renderings carry the per-stage quantiles and the traces.
    let mut text = String::new();
    reply.obs.render_text(&mut text);
    for needle in [
        "# TYPE nav_stage_latency_ms summary",
        "nav_stage_latency_ms{stage=\"trials\",quantile=\"0.99\"}",
        "nav_traces_recorded 20",
        "# trace index=0 ",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    let json = reply.obs.to_json();
    for needle in ["\"trials\"", "\"p99\"", "\"traces\"", "\"index\": 0"] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }
    // A wrong tenant handle gets the same typed refusal as a query.
    match client.stats(1) {
        Err(NetError::Remote(e)) => assert!(matches!(e.code, ErrorCode::UnknownHandle)),
        other => panic!("expected UnknownHandle refusal, got {other:?}"),
    }
    // The connection still serves queries after stats traffic.
    let (a, _) = client
        .serve(
            0,
            SamplerMode::Scalar,
            &QueryBatch::from_pairs(&pairs[..4], 2),
        )
        .expect("serve after stats");
    assert_eq!(a.len(), 4);
    drop(client);
    server.shutdown();
}

#[test]
fn snapshot_over_the_wire_restores_a_bit_identical_front() {
    // The durability surface end to end: serve a prefix over TCP, pull
    // a snapshot frame, restore it into a *local* front, and the suffix
    // must come out bit-identical from both — the wire round trip loses
    // neither the RNG cursor nor the warm state.
    use navigability::store::Snapshot;
    let g = world(64, 27);
    let server = spawn_server(&g, 31, AdmissionPolicy::Segmented, NetConfig::default());
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let pairs = client_pairs(&g, 6, 24);
    for chunk in pairs[..12].chunks(4) {
        client
            .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(chunk, 3))
            .expect("serve");
    }
    let bytes = client.snapshot(0).expect("snapshot frame");
    let snap = Snapshot::decode(&bytes).expect("wire snapshot decodes");
    assert!(
        !snap.state.rows.is_empty(),
        "the snapshot must carry the warm cache"
    );
    let mut local = snap
        .restore(test_threads(), ObsConfig::default())
        .expect("wire snapshot restores");
    let mut from_wire = Vec::new();
    for chunk in pairs[12..].chunks(4) {
        let (a, _) = client
            .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(chunk, 3))
            .expect("serve");
        from_wire.extend(a);
    }
    // The wire stamps every request with an explicit rng_base (the
    // client's cumulative counter), so the restored front is continued
    // the same way.
    let mut from_restore = Vec::new();
    let mut base = 12u64;
    for chunk in pairs[12..].chunks(4) {
        let b = QueryBatch::from_pairs(chunk, 3);
        from_restore.extend(
            local
                .serve_at(&b, base, SamplerMode::Scalar)
                .expect("serve")
                .answers,
        );
        base += b.len() as u64;
    }
    assert!(
        identical(&from_wire, &from_restore),
        "restored front diverged from the server it was snapshotted from"
    );
    // A wrong tenant handle refuses, typed, and the connection stays
    // healthy for queries afterwards.
    match client.snapshot(7) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownHandle),
        other => panic!("expected UnknownHandle refusal, got {other:?}"),
    }
    let (a, _) = client
        .serve(
            0,
            SamplerMode::Scalar,
            &QueryBatch::from_pairs(&pairs[..3], 3),
        )
        .expect("healthy after refusal");
    assert_eq!(a.len(), 3);
    drop(client);
    server.shutdown();
}

#[test]
fn shutdown_completes_despite_idle_connections() {
    // A client that connects, gets served once, and then goes silent
    // must not be able to hang shutdown: workers poll the stop flag at
    // frame boundaries (IDLE_POLL read timeouts).
    let g = world(48, 11);
    let server = spawn_server(&g, 19, AdmissionPolicy::Lru, NetConfig::default());
    let addr = server.addr();
    let mut idle = NetClient::connect(addr).expect("connect");
    let (answers, _) = idle
        .serve(
            0,
            SamplerMode::Scalar,
            &QueryBatch::from_pairs(&[(0, 1)], 1),
        )
        .expect("served once");
    assert_eq!(answers.len(), 1);
    // `idle` stays open and silent; a second never sends anything at all.
    let _silent = std::net::TcpStream::connect(addr).expect("connect");
    let done = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.shutdown();
        done.0.send(()).ok();
    });
    done.1
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("shutdown hung on idle connections");
    handle.join().expect("shutdown thread");
}

// --- 3. typed refusals ----------------------------------------------------

#[test]
fn refusals_are_typed_and_non_poisoning() {
    let g = world(32, 1);
    let server = spawn_server(
        &g,
        3,
        AdmissionPolicy::Lru,
        NetConfig {
            max_batch_queries: 8,
            ..NetConfig::default()
        },
    );
    let mut client = NetClient::connect(server.addr()).expect("connect");

    // Unknown handle.
    let err = client
        .request(Request {
            handle: 9,
            rng_base: 0,
            sampler: SamplerMode::Scalar,
            queries: vec![],
        })
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::UnknownHandle),
        "{err}"
    );

    // Batch over the admission limit.
    let big = QueryBatch::from_pairs(&[(0u32, 1u32); 9], 1);
    let err = client.serve(0, SamplerMode::Scalar, &big).unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::TooManyQueries),
        "{err}"
    );

    // Endpoint out of range for the served graph.
    let bad = QueryBatch::from_pairs(&[(0u32, 32u32)], 1);
    let err = client.serve(0, SamplerMode::Scalar, &bad).unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::InvalidEndpoint),
        "{err}"
    );

    // The same connection — and the engine behind it — still answers
    // exactly after three refusals.
    let pairs = client_pairs(&g, 2, 6);
    let reference = run_trials(
        &g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: 2,
            seed: 3,
            threads: 1,
            ..TrialConfig::default()
        },
    )
    .expect("valid");
    let (answers, metrics) = client
        .request(Request {
            handle: 0,
            rng_base: 0,
            sampler: SamplerMode::Scalar,
            queries: QueryBatch::from_pairs(&pairs, 2).queries,
        })
        .expect("healthy after refusals");
    assert!(identical(&answers, &reference.pairs));
    // Refused batches never reached the engine.
    assert_eq!(metrics.batches, 1);
    assert_eq!(metrics.queries, 6);
    drop(client);
    server.shutdown();
}

/// Uniform contacts everywhere except at one node, whose draw panics.
struct PanicsAt(NodeId);

impl AugmentationScheme for PanicsAt {
    fn name(&self) -> String {
        "panics-at".into()
    }

    fn sample_contact(&self, g: &Graph, u: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        assert_ne!(u, self.0, "sampler panics at node {u}");
        UniformScheme.sample_contact(g, u, rng)
    }
}

#[test]
fn a_panicking_batch_costs_that_batch_only() {
    // On a path, greedy routing toward `t` only visits nodes closer to
    // `t` than the source, so queries with sources below the last node
    // and targets near 0 never touch it.
    let g = navigability::gen::classic::path(64).expect("path");
    let hot = 63;
    let cfg = EngineConfig {
        seed: 17,
        threads: 2,
        cache_bytes: 1 << 20,
        ..EngineConfig::default()
    };
    let engine = Engine::new(g.clone(), Box::new(PanicsAt(hot)), cfg);
    let server = NetServer::bind(engine, NetConfig::default(), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    // The batch that routes from the panicking node is refused as an
    // internal, non-retryable failure. Its cold fill of target 0 ran
    // before the panic.
    let err = client
        .request(Request {
            handle: 0,
            rng_base: 0,
            sampler: SamplerMode::Scalar,
            queries: QueryBatch::from_pairs(&[(20, 0), (hot, 0)], 3).queries,
        })
        .expect_err("the batch that hits the panicking node must be refused");
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::Internal),
        "{err}"
    );
    assert!(!err.is_retryable());

    // Another connection still gets stats: the engine lock was not
    // poisoned, and the panicked batch recorded no batch counters.
    let mut other = NetClient::connect(server.addr()).expect("second connection");
    let reply = other.stats(0).expect("stats after the panic");
    assert_eq!(reply.metrics.batches, 0);
    assert_eq!(reply.metrics.queries, 0);

    // A later batch that avoids the node (reusing the resident row for
    // target 0) is answered bit-identically to a local engine.
    let pairs = [(20, 0), (30, 0), (10, 5), (25, 3), (40, 41)];
    let batch = QueryBatch::from_pairs(&pairs, 4);
    let (answers, metrics) = client
        .request(Request {
            handle: 0,
            rng_base: 2,
            sampler: SamplerMode::Scalar,
            queries: batch.queries.clone(),
        })
        .expect("healthy after the panic");
    let mut local = Engine::new(g.clone(), Box::new(PanicsAt(hot)), cfg);
    let reference = local
        .serve_at(&batch, 2, SamplerMode::Scalar)
        .expect("valid batch");
    assert!(identical(&answers, &reference.answers));
    assert_eq!(metrics.batches, 1);
    assert_eq!(metrics.queries, pairs.len() as u64);
    drop((client, other));
    server.shutdown();
}

#[test]
fn a_trial_flood_is_refused_before_it_takes_the_engine() {
    // One query of 4·10^9 trials fits the wire's u32 but would pin the
    // engine mutex for hours (and, under a batched sampler, allocate its
    // lockstep walk state up front). The summed-trial budget refuses it
    // before the engine lock is taken.
    let g = world(48, 11);
    let server = spawn_server(&g, 11, AdmissionPolicy::Lru, NetConfig::default());
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let mut flood = QueryBatch::from_pairs(&[(0u32, 40u32)], 1);
    flood.queries[0].trials = 4_000_000_000;
    let err = client
        .request(Request {
            handle: 0,
            rng_base: 0,
            sampler: SamplerMode::Batched,
            queries: flood.queries,
        })
        .expect_err("a request over the trial budget must be refused");
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::TooManyQueries
            && e.message.contains("trial admission limit")),
        "{err}"
    );
    assert!(!err.is_retryable());

    // The engine never saw it: a second connection gets stats at once.
    let mut other = NetClient::connect(server.addr()).expect("second connection");
    let reply = other.stats(0).expect("stats after the refusal");
    assert_eq!((reply.metrics.batches, reply.metrics.trials), (0, 0));

    // A normal batch that follows is answered bit-identically to a local
    // engine.
    let pairs = client_pairs(&g, 6, 12);
    let batch = QueryBatch::from_pairs(&pairs, 4);
    let (answers, metrics) = client
        .request(Request {
            handle: 0,
            rng_base: 0,
            sampler: SamplerMode::Scalar,
            queries: batch.queries.clone(),
        })
        .expect("healthy after the refusal");
    let mut local = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed: 11,
            threads: 1,
            cache_bytes: 1 << 20,
            admission: AdmissionPolicy::Lru,
            ..EngineConfig::default()
        },
    );
    let reference = local
        .serve_at(&batch, 0, SamplerMode::Scalar)
        .expect("valid batch");
    assert!(identical(&answers, &reference.answers));
    assert_eq!(metrics.batches, 1);
    drop((client, other));
    server.shutdown();
}

#[test]
fn oversized_trials_are_refused_client_side_without_retries() {
    // The v3 encoder silently clamped `trials` to u32::MAX, so the server
    // answered a *different* question than the client asked. Now the
    // client refuses before a single byte hits the socket: typed,
    // non-retryable, connection left clean.
    let g = world(48, 9);
    let server = spawn_server(&g, 9, AdmissionPolicy::Lru, NetConfig::default());
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let mut batch = QueryBatch::from_pairs(&[(0u32, 40u32)], 3);
    batch.queries[0].trials = u32::MAX as usize + 1;
    let err = client
        .serve(0, SamplerMode::Scalar, &batch)
        .expect_err("a query the wire cannot carry must be refused");
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::InvalidQuery),
        "{err}"
    );
    assert!(!err.is_retryable());
    // Nothing was sent: the RNG offset did not advance, and the same
    // connection still serves well-formed batches bit-identically.
    assert_eq!(client.queries_sent(), 0);
    let pairs = client_pairs(&g, 4, 6);
    let reference = run_trials(
        &g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: 3,
            seed: 9,
            threads: 1,
            ..TrialConfig::default()
        },
    )
    .expect("valid");
    let (answers, _) = client
        .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(&pairs, 3))
        .expect("healthy after the local refusal");
    assert!(identical(&answers, &reference.pairs));

    // RetryingClient refuses identically and burns zero reconnects — a
    // deterministic refusal replayed N times would fail N times.
    let mut rc = RetryingClient::connect(server.addr(), RetryPolicy::default()).expect("connect");
    let err = rc
        .serve(0, SamplerMode::Scalar, &batch)
        .expect_err("must refuse without retrying");
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::InvalidQuery),
        "{err}"
    );
    assert_eq!(rc.retries(), 0);
    assert_eq!(rc.queries_sent(), 0);
    server.shutdown();
}

// --- 4. handles compare as one whole u32 --------------------------------

#[test]
fn former_pin_bytes_are_unknown_handles_and_stats_still_answer() {
    let g = world(72, 4);
    let seed = 29u64;
    let cfg = EngineConfig {
        seed,
        threads: 1,
        cache_bytes: 1 << 20,
        ..EngineConfig::default()
    };
    let engine = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
    let server = NetServer::bind(engine, NetConfig::default(), "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(server.addr()).expect("connect");

    // The configured handle: bit-identical to run_trials.
    let pairs = client_pairs(&g, 1, 18);
    let reference = run_trials(
        &g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: 3,
            seed,
            threads: 1,
            ..TrialConfig::default()
        },
    )
    .expect("valid");
    let (answers, _) = client
        .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(&pairs, 3))
        .expect("serve");
    assert!(identical(&answers, &reference.pairs));

    // A non-zero top byte is part of the handle: refused typed, never
    // widened to "any target".
    for top in [1u32, 2, 0xFF] {
        let err = client
            .serve(
                top << 24,
                SamplerMode::Scalar,
                &QueryBatch::from_pairs(&[(0, 1)], 1),
            )
            .unwrap_err();
        assert!(
            matches!(&err, NetError::Remote(e) if e.code == ErrorCode::UnknownHandle),
            "{err}"
        );
    }
    // The same connection still answers stats, and nothing was served.
    let reply = client.stats(0).expect("stats after refusals");
    assert_eq!(reply.metrics.queries, pairs.len() as u64);
    assert_eq!(reply.metrics.batches, 1);
    drop(client);
    server.shutdown();

    // A server whose handle has a top byte accepts exactly that handle:
    // its low 24 bits alone are refused.
    let engine = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
    let net = NetConfig {
        handle: 0x0100_0007,
        ..NetConfig::default()
    };
    let server = NetServer::bind(engine, net, "127.0.0.1:0")
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let err = client.stats(7).unwrap_err();
    assert!(
        matches!(&err, NetError::Remote(e) if e.code == ErrorCode::UnknownHandle),
        "{err}"
    );
    assert_eq!(client.stats(0x0100_0007).expect("stats").metrics.queries, 0);
    drop(client);
    server.shutdown();
}

// --- 5. chaos soak: churn + disconnects + sheds + deadlines ---------------
//
// The robustness gate: a stream served through every fault the wire can
// throw at it — mid-response disconnects, forced reconnects, typed
// Overloaded sheds, saboteur frames — must equal the uninterrupted local
// stream **bit for bit**, at every churn epoch. Retrying is safe because
// each request's `rng_base` is fixed before its first attempt.

/// Engine knobs for the fault-injected soak: link drops plus a 3-epoch
/// churn plan whose period is shorter than one client stream, so the
/// soak crosses every epoch.
fn chaos_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        threads: 1,
        cache_bytes: 1 << 20,
        fault: FaultConfig {
            drop_prob: 0.25,
            plan: Some(FailurePlan::new(5, 3, 8, 0.1)),
        },
        ..EngineConfig::default()
    }
}

/// The answers a local engine with `cfg` gives `pairs`, served in
/// `chunk`-sized batches at the same cumulative RNG bases a well-behaved
/// client would stamp.
fn local_stream(
    g: &Graph,
    cfg: EngineConfig,
    pairs: &[(NodeId, NodeId)],
    chunk: usize,
) -> Vec<PairStats> {
    let mut eng = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
    let mut base = 0u64;
    let mut out = Vec::new();
    for ch in pairs.chunks(chunk) {
        let b = QueryBatch::from_pairs(ch, 3);
        let r = eng.serve_at(&b, base, SamplerMode::Scalar).expect("local");
        base += b.len() as u64;
        out.extend(r.answers);
    }
    out
}

/// One direction of a proxied connection; severs both ways once `budget`
/// bytes have flowed.
fn pump(mut from: TcpStream, mut to: TcpStream, mut budget: usize) {
    use std::io::{Read, Write};
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let n = n.min(budget);
        if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
            break;
        }
        budget -= n;
        if budget == 0 {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// A TCP proxy in front of `target` that kills the server→client leg of
/// each of the first `kills` connections after `kill_after` bytes —
/// guaranteed mid-frame for any realistic response — and forwards every
/// later connection cleanly.
fn flaky_proxy(target: SocketAddr, kills: usize, kill_after: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let mut conn = 0usize;
        for stream in listener.incoming() {
            let Ok(client) = stream else { continue };
            let kill = conn < kills;
            conn += 1;
            std::thread::spawn(move || {
                let Ok(server) = TcpStream::connect(target) else {
                    return;
                };
                let (c2, s2) = match (client.try_clone(), server.try_clone()) {
                    (Ok(c), Ok(s)) => (c, s),
                    _ => return,
                };
                let up = std::thread::spawn(move || pump(c2, server, usize::MAX));
                pump(s2, client, if kill { kill_after } else { usize::MAX });
                let _ = up.join();
            });
        }
    });
    addr
}

#[test]
fn retried_streams_equal_uninterrupted_streams_under_churn_and_chaos() {
    let g = world(72, 33);
    let seed = 47u64;
    let engine = Engine::new(g.clone(), Box::new(UniformScheme), chaos_cfg(seed));
    let server = NetServer::bind(
        engine,
        NetConfig {
            workers: 4,
            ..NetConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let direct = server.addr();
    // Three kills: wherever they land among the clients' first connects
    // and reconnects, every stream must come out identical.
    let proxied = flaky_proxy(direct, 3, 200);
    let total_retries = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Saboteurs hammer the server directly with malformed frames and
        // vanishing connections while the honest clients stream.
        for k in 0..3u8 {
            scope.spawn(move || {
                use std::io::Write;
                if let Ok(mut s) = TcpStream::connect(direct) {
                    let _ = match k % 3 {
                        0 => s.write_all(b"GARBAGE-NOT-A-FRAME"),
                        1 => s.write_all(
                            &Frame::encode(&Frame::Request(Request {
                                handle: 0,
                                rng_base: 0,
                                sampler: SamplerMode::Scalar,
                                queries: vec![],
                            }))[..9],
                        ),
                        _ => Ok(()),
                    };
                }
            });
        }
        for c in 0..3u64 {
            let g = &g;
            let total_retries = &total_retries;
            scope.spawn(move || {
                let pairs = client_pairs(g, c, 24);
                // 24 queries at churn period 8 cross epochs 0, 1 and 2.
                let want = local_stream(g, chaos_cfg(seed), &pairs, 5);
                let mut rc = RetryingClient::connect(
                    proxied,
                    RetryPolicy {
                        max_attempts: 8,
                        backoff_base: Duration::from_millis(1),
                        backoff_cap: Duration::from_millis(20),
                        seed: c,
                    },
                )
                .expect("resolve");
                let mut got = Vec::new();
                for (i, chunk) in pairs.chunks(5).enumerate() {
                    if i == 2 {
                        // Forced mid-stream reconnect, on top of whatever
                        // the proxy already severed.
                        rc.sever();
                    }
                    let (a, m) = rc
                        .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(chunk, 3))
                        .expect("chaos serve");
                    // The fault layer is live: the server reports drops
                    // and epoch flips once the stream crosses them.
                    if i > 0 {
                        assert!(m.dropped_links > 0, "fault layer inactive?");
                    }
                    got.extend(a);
                }
                assert!(
                    identical(&got, &want),
                    "client {c}: retried stream diverged from uninterrupted local stream"
                );
                total_retries.fetch_add(rc.retries(), std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    // The proxy killed three connections; somebody must have replayed.
    assert!(
        total_retries.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "chaos proxy severed 3 connections but no client retried"
    );
    server.shutdown();
}

#[test]
fn retrying_client_stats_reconnect_and_reask_after_a_cut_reply() {
    // Fleet-health polling must be as churn-tolerant as the query path:
    // a stats reply severed mid-frame forces RetryingClient::stats to
    // reconnect and re-ask (safe — stats are a read), while
    // deterministic refusals still pass through without burning
    // attempts.
    let g = world(48, 17);
    let server = spawn_server(&g, 23, AdmissionPolicy::Segmented, NetConfig::default());
    let direct = server.addr();
    // Warm the counters over a plain connection first.
    let mut warm = NetClient::connect(direct).expect("connect");
    let pairs = client_pairs(&g, 3, 8);
    for chunk in pairs.chunks(4) {
        warm.serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(chunk, 2))
            .expect("serve");
    }
    drop(warm);
    // A proxy that cuts the first connection's reply after 100 bytes:
    // a stats frame (12-byte header + 128 bytes of counters + the obs
    // snapshot) can never complete, so the first ask must fail
    // retryably.
    let proxied = flaky_proxy(direct, 1, 100);
    let mut rc = RetryingClient::connect(
        proxied,
        RetryPolicy {
            max_attempts: 6,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            ..RetryPolicy::default()
        },
    )
    .expect("resolve");
    let reply = rc.stats(0).expect("stats through a severed reply");
    assert_eq!(reply.metrics.queries, 8);
    assert_eq!(reply.metrics.batches, 2);
    assert!(
        rc.retries() >= 1,
        "the cut reply must have forced a reconnect-and-reask"
    );
    // An explicit sever loses only the socket: the next poll reconnects
    // transparently and still answers.
    rc.sever();
    let again = rc.stats(0).expect("stats after sever");
    assert_eq!(again.metrics.queries, 8);
    // A wrong tenant handle is a deterministic refusal: typed, and not
    // retried.
    let retries_before = rc.retries();
    match rc.stats(9) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::UnknownHandle),
        other => panic!("expected UnknownHandle refusal, got {other:?}"),
    }
    assert_eq!(rc.retries(), retries_before);
    server.shutdown();
}

#[test]
fn overload_sheds_are_typed_retryable_and_recoverable() {
    let g = world(48, 8);
    let server = spawn_server(
        &g,
        21,
        AdmissionPolicy::Lru,
        NetConfig {
            workers: 1,
            max_pending: 1,
            ..NetConfig::default()
        },
    );
    let addr = server.addr();
    // Occupy the lone worker with a silent connection, then fill the
    // one-deep admission queue with a second.
    let busy = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));
    let queued = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    // The next arrival is shed — with a *typed*, retryable refusal, not a
    // silent reset.
    let mut shed = NetClient::connect(addr).expect("connect");
    let err = shed
        .serve(
            0,
            SamplerMode::Scalar,
            &QueryBatch::from_pairs(&[(0, 1)], 1),
        )
        .unwrap_err();
    match &err {
        NetError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::Overloaded, "{err}");
            assert!(e.code.is_retryable());
        }
        // The refusal write is best-effort; under extreme scheduling the
        // stream may already be gone. Either way it must read as
        // retryable.
        other => assert!(other.is_retryable(), "{other}"),
    }
    assert!(err.is_retryable());
    // Capacity drains …
    drop(busy);
    drop(queued);
    // … and a retrying client now gets exact answers from the same
    // server: the shed poisoned nothing.
    let pairs = client_pairs(&g, 4, 6);
    let reference = run_trials(
        &g,
        &UniformScheme,
        &pairs,
        &TrialConfig {
            trials_per_pair: 3,
            seed: 21,
            threads: 1,
            ..TrialConfig::default()
        },
    )
    .expect("valid");
    let mut rc = RetryingClient::connect(
        addr,
        RetryPolicy {
            max_attempts: 6,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
    )
    .expect("resolve");
    let (answers, _) = rc
        .serve(0, SamplerMode::Scalar, &QueryBatch::from_pairs(&pairs, 3))
        .expect("recovered");
    assert!(identical(&answers, &reference.pairs));
    server.shutdown();
}

#[test]
fn read_deadline_expels_tricklers_but_spares_idle_connections() {
    use std::io::{Read, Write};
    let g = world(48, 6);
    let server = spawn_server(
        &g,
        9,
        AdmissionPolicy::Lru,
        NetConfig {
            workers: 2,
            read_deadline: Some(Duration::from_millis(300)),
            ..NetConfig::default()
        },
    );
    let addr = server.addr();
    // An *idle* connection may outlive the deadline arbitrarily: the
    // budget starts at a frame's first byte, never between frames.
    let mut idle = NetClient::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(700));
    let (answers, _) = idle
        .serve(
            0,
            SamplerMode::Scalar,
            &QueryBatch::from_pairs(&[(0, 1)], 1),
        )
        .expect("idle connection must survive the read deadline");
    assert_eq!(answers.len(), 1);
    // A slow-trickle writer inside a frame is torn down once the budget
    // lapses — it cannot pin a worker forever.
    let bytes = Frame::Request(Request {
        handle: 0,
        rng_base: 0,
        sampler: SamplerMode::Scalar,
        queries: vec![navigability::engine::Query {
            s: 0,
            t: 1,
            trials: 1,
        }],
    })
    .encode();
    let mut trickler = TcpStream::connect(addr).expect("connect");
    trickler.write_all(&bytes[..10]).expect("first bytes");
    std::thread::sleep(Duration::from_millis(900));
    // By now the server must have hung up: the rest of the frame either
    // fails to send or the read returns EOF/reset instead of an answer.
    let _ = trickler.write_all(&bytes[10..]);
    let _ = trickler.flush();
    trickler
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut buf = [0u8; 1];
    match trickler.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(_) => panic!("server answered a frame that blew its read deadline"),
    }
    // The worker freed by the expulsion still serves honest clients.
    replay_and_check(addr, &g, 9, 1, 4);
    server.shutdown();
}
