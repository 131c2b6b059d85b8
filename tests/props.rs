//! Property-based tests (proptest) on the core invariants, across crates.

use navigability::core::exact::exact_expected_steps;
use navigability::core::routing::{default_step_cap, GreedyRouter};
use navigability::decomp::construct::from_ordering;
use navigability::decomp::validate::validate_path_decomposition;
use navigability::graph::components::connect_components;
use navigability::graph::prufer::{prufer_encode, tree_from_prufer};
use navigability::prelude::*;
use proptest::prelude::*;

/// Arbitrary graph (possibly disconnected): random edge set over `n` nodes.
fn arbitrary_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1usize..max_n)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..2 * n);
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build().expect("valid")
        })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn msbfs_distances_equal_scalar_bfs(g in arbitrary_graph(90), seed in 0u64..1000) {
        // The bit-parallel kernel must agree with scalar BFS lane by lane,
        // including unreachable nodes on disconnected graphs and duplicate
        // sources.
        use navigability::graph::bfs::Bfs;
        use navigability::graph::msbfs::MsBfs;
        use rand::Rng;
        let n = g.num_nodes();
        let mut rng = seeded_rng(seed);
        let k = rng.gen_range(1..=64usize);
        let sources: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
        let mut ms = MsBfs::new(n);
        let rows = ms.distances(&g, &sources);
        let mut bfs = Bfs::new(n);
        for (lane, &s) in sources.iter().enumerate() {
            let scalar = bfs.distances(&g, s);
            prop_assert_eq!(&rows[lane * n..(lane + 1) * n], scalar.as_slice(),
                "lane {} source {}", lane, s);
        }
    }

    #[test]
    fn oracle_rows_equal_fresh_router_rows(g in arbitrary_graph(70), seed in 0u64..1000) {
        // Cached target rows must be exactly what a per-pair router would
        // have computed (disconnected graphs included).
        use navigability::core::oracle::TargetDistanceCache;
        use rand::Rng;
        let n = g.num_nodes() as u32;
        let mut rng = seeded_rng(seed ^ 0x0c1e);
        let targets: Vec<u32> = (0..rng.gen_range(1..80usize))
            .map(|_| rng.gen_range(0..n))
            .collect();
        let threads = rng.gen_range(1..4usize);
        let cache = TargetDistanceCache::build(&g, targets.iter().copied(), threads).unwrap();
        for &t in &targets {
            let fresh = GreedyRouter::new(&g, t).unwrap();
            let row = cache.row(t).expect("built");
            for v in 0..n {
                prop_assert_eq!(row.get(v as usize), fresh.dist_to_target(v), "t {} v {}", t, v);
            }
        }
    }

    #[test]
    fn greedy_steps_between_dist_and_n(g in connected_graph(60), seed in 0u64..1000) {
        let mut rng = seeded_rng(seed);
        let n = g.num_nodes() as u32;
        let s = seed as u32 % n;
        let t = (seed as u32 / 2 + n / 2) % n;
        let router = GreedyRouter::new(&g, t).unwrap();
        let ball = BallScheme::new(&g);
        let out = router.route(&ball, s, &mut rng, default_step_cap(&g), true);
        prop_assert!(out.reached);
        let dist = router.dist_to_target(s);
        prop_assert!(out.steps >= dist.min(1) * (dist > 0) as u32 || dist == 0);
        prop_assert!(out.steps <= n);
        // The recorded path strictly decreases distance.
        let path = out.path.unwrap();
        for w in path.windows(2) {
            prop_assert!(router.dist_to_target(w[1]) < router.dist_to_target(w[0]));
        }
    }

    #[test]
    fn exact_expectation_bounded_by_distance(g in connected_graph(40), t_pick in 0usize..1000) {
        let t = (t_pick % g.num_nodes()) as u32;
        let e = exact_expected_steps(&g, &UniformScheme, t).unwrap();
        let router = GreedyRouter::new(&g, t).unwrap();
        for u in g.nodes() {
            let d = router.dist_to_target(u) as f64;
            prop_assert!(e[u as usize] <= d + 1e-9, "u={u} E={} d={}", e[u as usize], d);
            prop_assert!(e[u as usize] >= 0.0);
        }
    }

    #[test]
    fn any_ordering_gives_valid_decomposition(g in connected_graph(40), salt in 0u64..1000) {
        // A random permutation as layout: from_ordering must always be a
        // valid path-decomposition (width varies, validity never).
        let n = g.num_nodes();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = seeded_rng(salt);
        for i in (1..n).rev() {
            use rand::Rng;
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let pd = from_ordering(&g, &order);
        prop_assert!(validate_path_decomposition(&g, &pd).is_ok());
    }

    #[test]
    fn portfolio_always_valid(g in connected_graph(40)) {
        let r = navigability::decomp::best_path_decomposition(&g, &Default::default());
        prop_assert!(validate_path_decomposition(&g, &r.pd).is_ok());
        prop_assert!(r.shape < g.num_nodes());
    }

    #[test]
    fn theorem2_distribution_substochastic(g in connected_graph(40)) {
        use navigability::core::scheme::ExplicitScheme;
        let t2 = Theorem2Scheme::from_portfolio(&g);
        for u in g.nodes() {
            let total: f64 = t2.contact_distribution(&g, u).iter().map(|&(_, p)| p).sum();
            prop_assert!(total <= 1.0 + 1e-9);
            prop_assert!(total >= 0.5 - 1e-9); // uniform half always present
        }
    }

    #[test]
    fn prufer_roundtrip(seq in proptest::collection::vec(0u32..12, 0..10)) {
        let n = seq.len() + 2;
        let seq: Vec<u32> = seq.into_iter().map(|s| s % n as u32).collect();
        let g = tree_from_prufer(n, &seq).unwrap();
        prop_assert!(navigability::graph::properties::is_tree(&g));
        prop_assert_eq!(prufer_encode(&g), seq);
    }

    #[test]
    fn ball_distribution_sums_to_one(g in connected_graph(40), u_pick in 0usize..1000) {
        use navigability::core::scheme::ExplicitScheme;
        let u = (u_pick % g.num_nodes()) as u32;
        let ball = BallScheme::new(&g);
        let total: f64 = ball.contact_distribution(&g, u).iter().map(|&(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn ball_row_cache_equals_scalar_ball_structure(g in arbitrary_graph(60), seed in 0u64..1000) {
        // The batched sampler draws "uniform scale k, uniform member of
        // B(u, 2^k)" by index into its row, so sharing passes is invisible
        // only if every row is canonical: exactly the row
        // `BallRow::from_distances` builds from a scalar BFS, at every
        // lane width, whether its centre is alone in a pass or packed
        // beside unrelated centres — on random (possibly disconnected)
        // graphs.
        use navigability::core::ball::BallRow;
        use navigability::core::sampler::ContactSampler;
        use navigability::core::BallRowSampler;
        use navigability::graph::bfs::Bfs;
        use navigability::graph::msbfs::LaneWidth;
        let scheme = BallScheme::new(&g);
        let n = g.num_nodes();
        let mut bfs = Bfs::new(n);
        let probe = (seed as usize % n) as u32;
        // The probe alone, then packed among every node in seeded order.
        let mut crowd: Vec<u32> = (0..n as u32).collect();
        crowd.rotate_left(seed as usize % n);
        for width in LaneWidth::ALL {
            for order in [vec![probe], crowd.clone()] {
                let mut sampler = BallRowSampler::with_width(scheme, usize::MAX, width);
                let mut at = 0;
                while at < order.len() {
                    let len = sampler.prepare(&g, &order[at..]);
                    for &u in &order[at..at + len] {
                        let reference = BallRow::from_distances(scheme, &bfs.distances(&g, u));
                        prop_assert_eq!(sampler.row(u), Some(&reference), "{} u={}", width, u);
                    }
                    at += len;
                }
            }
        }
    }

    #[test]
    fn batched_mode_is_thread_invariant_and_safe(g in connected_graph(48), seed in 0u64..1000) {
        // run_trials under the batched sampler: a pure function of
        // (seed, pair index) — bit-identical across thread counts — and
        // every walk still reaches its target within the step cap.
        use navigability::core::sampler::SamplerMode;
        let n = g.num_nodes() as u32;
        let pairs: Vec<(u32, u32)> = (0..6u32).map(|i| (i % n, (i * 11 + 3) % n)).collect();
        let cfg1 = TrialConfig {
            trials_per_pair: 5, seed, threads: 1, sampler: SamplerMode::Batched,
            ..TrialConfig::default()
        };
        let cfg4 = TrialConfig { threads: 4, ..cfg1.clone() };
        let ball = BallScheme::new(&g);
        let r1 = run_trials(&g, &ball, &pairs, &cfg1).unwrap();
        let r4 = run_trials(&g, &ball, &pairs, &cfg4).unwrap();
        for (a, b) in r1.pairs.iter().zip(&r4.pairs) {
            prop_assert!(a.bits_eq(b));
            prop_assert_eq!(a.failures, 0);
            prop_assert!(a.max_steps <= n);
            prop_assert!(a.mean_steps >= 0.0);
        }
    }

    #[test]
    fn batched_mode_falls_back_bit_identically_for_plain_schemes(
        g in connected_graph(40),
        seed in 0u64..1000,
    ) {
        // Schemes without a batched backend must be untouched by the
        // sampler knob: batched mode ≡ scalar mode bit for bit.
        use navigability::core::sampler::SamplerMode;
        let n = g.num_nodes() as u32;
        let pairs = [(0u32, n - 1), (n / 2, 0)];
        let scalar = TrialConfig {
            trials_per_pair: 4, seed, threads: 2, sampler: SamplerMode::Scalar,
            ..TrialConfig::default()
        };
        let batched = TrialConfig { sampler: SamplerMode::Batched, ..scalar.clone() };
        let a = run_trials(&g, &UniformScheme, &pairs, &scalar).unwrap();
        let b = run_trials(&g, &UniformScheme, &pairs, &batched).unwrap();
        for (x, y) in a.pairs.iter().zip(&b.pairs) {
            prop_assert!(x.bits_eq(y));
        }
    }

    #[test]
    fn msbfs_distances_identical_at_every_lane_width(g in arbitrary_graph(90), seed in 0u64..1000) {
        // The lane-width contract: the same sources through 128- and
        // 256-lane word blocks produce the 64-lane rows bit for bit —
        // across thread counts and batch splits (batched_rows chunks at
        // the width's lane count, so each width splits differently) —
        // and each row is the scalar BFS row.
        use navigability::graph::bfs::Bfs;
        use navigability::graph::msbfs::{batched_rows_into_w, LaneWidth};
        use rand::Rng;
        let n = g.num_nodes();
        let mut rng = seeded_rng(seed ^ 0x31de);
        let k = rng.gen_range(1..200usize);
        let sources: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n as u32)).collect();
        let mut reference = vec![0u32; k * n];
        batched_rows_into_w(&g, &sources, 1, LaneWidth::W64, &mut reference);
        let threads = rng.gen_range(1..4usize);
        for width in [LaneWidth::W128, LaneWidth::W256] {
            let mut rows = vec![0u32; k * n];
            batched_rows_into_w(&g, &sources, threads, width, &mut rows);
            prop_assert_eq!(&rows, &reference, "width {} diverged", width.label());
        }
        let mut bfs = Bfs::new(n);
        for (i, &s) in sources.iter().enumerate() {
            let scalar = bfs.distances(&g, s);
            prop_assert_eq!(&reference[i * n..(i + 1) * n], scalar.as_slice(), "source {}", s);
        }
    }

    #[test]
    fn scalar_trials_are_width_invariant(g in connected_graph(48), seed in 0u64..1000) {
        // In scalar sampling mode the lane width only changes how the
        // target-distance oracle is filled — and oracle rows are exact at
        // every width — so trial answers must be bit-identical across
        // widths and thread counts.
        use navigability::core::sampler::SamplerMode;
        use navigability::graph::msbfs::LaneWidth;
        let n = g.num_nodes() as u32;
        let pairs: Vec<(u32, u32)> = (0..5u32).map(|i| (i % n, (i * 7 + 1) % n)).collect();
        let ball = BallScheme::new(&g);
        let base = TrialConfig {
            trials_per_pair: 4, seed, threads: 1, sampler: SamplerMode::Scalar,
            width: LaneWidth::W64,
        };
        let reference = run_trials(&g, &ball, &pairs, &base).unwrap();
        for width in [LaneWidth::W128, LaneWidth::W256] {
            for threads in [1usize, 3] {
                let cfg = TrialConfig { width, threads, ..base.clone() };
                let r = run_trials(&g, &ball, &pairs, &cfg).unwrap();
                for (a, b) in reference.pairs.iter().zip(&r.pairs) {
                    prop_assert!(a.bits_eq(b), "width {} threads {}", width.label(), threads);
                }
            }
        }
    }
}

/// A lollipop under a random id permutation: a connected random "body"
/// of `body` nodes, a path "tail" of `tail` nodes hanging off it, and one
/// detached edge (so every lane has unreached cells). Returns the graph,
/// the body ids and the tail ids (nearest the body first). The tail
/// pushes BFS depths past one or more 255-level plane windows, and the
/// permutation scatters its ids the way `gnp_connected` scatters the
/// isolated nodes it chains into a tail.
fn deep_tailed_graph(body: usize, tail: usize, seed: u64) -> (Graph, Vec<u32>, Vec<u32>) {
    use rand::Rng;
    let n = body + tail + 2;
    let mut rng = seeded_rng(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..body {
        b.add_edge(perm[u], perm[(u + 1) % body]);
        let v = rng.gen_range(0..body);
        if v != u {
            b.add_edge(perm[u], perm[v]);
        }
    }
    for i in 0..tail {
        let prev = if i == 0 { 0 } else { body + i - 1 };
        b.add_edge(perm[prev], perm[body + i]);
    }
    b.add_edge(perm[n - 2], perm[n - 1]);
    let g = b.build().expect("valid");
    (g, perm[..body].to_vec(), perm[body..body + tail].to_vec())
}

/// Every distance fill at width `W` against scalar BFS rows: the
/// workspace's `u32` rows, the compact rows of the batched cold fill
/// (each narrow exactly when it fits in `u16`), and the workspace's `u8`
/// rows, which must refuse exactly when a finite distance reaches 255.
fn assert_fills_match_scalar<const W: usize>(
    ms: &mut navigability::graph::msbfs::MsBfsW<W>,
    g: &Graph,
    sources: &[u32],
) {
    use navigability::graph::bfs::Bfs;
    use navigability::graph::distance::DistRowBuf;
    use navigability::graph::msbfs::{batched_compact_rows_w, LaneWidth};
    use navigability::graph::INFINITY;
    let n = g.num_nodes();
    let k = sources.len();
    let mut bfs = Bfs::new(n);
    let scalar: Vec<Vec<u32>> = sources.iter().map(|&s| bfs.distances(g, s)).collect();
    let rows = ms.distances(g, sources);
    for (lane, want) in scalar.iter().enumerate() {
        assert_eq!(
            &rows[lane * n..(lane + 1) * n],
            want.as_slice(),
            "W={W} u32 lane {lane}"
        );
    }
    let width = LaneWidth::ALL
        .into_iter()
        .find(|w| w.words() == W)
        .expect("W is a supported width");
    let compact = batched_compact_rows_w(g, sources, 1, width);
    assert_eq!(compact.len(), k, "W={W}");
    for (lane, (row, want)) in compact.iter().zip(&scalar).enumerate() {
        assert_eq!(
            row,
            &DistRowBuf::from_wide(want),
            "W={W} compact lane {lane}"
        );
    }
    let deepest = scalar
        .iter()
        .flatten()
        .filter(|&&d| d != INFINITY)
        .max()
        .copied();
    let mut bytes = vec![7u8; k * n];
    let fits = ms.distances_into_bytes(g, sources, &mut bytes);
    assert_eq!(fits, deepest.unwrap_or(0) < 255, "W={W} byte refusal");
    if fits {
        for (lane, want) in scalar.iter().enumerate() {
            let want: Vec<u8> = want.iter().map(|&d| d.min(255) as u8).collect();
            assert_eq!(
                &bytes[lane * n..(lane + 1) * n],
                want.as_slice(),
                "W={W} u8 lane {lane}"
            );
        }
    }
}

/// Up to `64 · W` sources on a tailed graph: half in the body, half in
/// the deeper half of the tail, with the body and the tail's end always
/// present — a source deep in the tail discovers most nodes past depth
/// 255.
fn tailed_sources(lanes: usize, body: &[u32], tail: &[u32], seed: u64) -> Vec<u32> {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let k = rng.gen_range(2..=lanes);
    let mut sources: Vec<u32> = (0..k)
        .map(|_| {
            if rng.gen_range(0..2u32) == 0 {
                body[rng.gen_range(0..body.len())]
            } else {
                tail[rng.gen_range(tail.len() / 2..tail.len())]
            }
        })
        .collect();
    sources[0] = body[0];
    sources[k - 1] = tail[tail.len() - 1];
    sources
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn msbfs_deep_graphs_equal_scalar_bfs(
        body in 20usize..200,
        tail in 260usize..900,
        seed in 0u64..1000,
    ) {
        // Depths past 255 (and past 510 and 765 on the longer tails) are
        // recorded in successive plane windows of one traversal. Every
        // fill entry point must still equal scalar BFS at every width,
        // and the byte fill must still refuse. Each workspace then serves
        // a smaller graph, which must see no dirty planes.
        use navigability::graph::msbfs::MsBfsW;
        fn check<const W: usize>(g: &Graph, body: &[u32], tail: &[u32], small: &Graph, seed: u64) {
            let mut ms = MsBfsW::<W>::new(0);
            let sources = tailed_sources(64 * W, body, tail, seed);
            assert_fills_match_scalar(&mut ms, g, &sources);
            let n = small.num_nodes() as u32;
            let sources: Vec<u32> = (0..(64 * W).min(40) as u32).map(|i| i * 7 % n).collect();
            assert_fills_match_scalar(&mut ms, small, &sources);
        }
        let (g, body_ids, tail_ids) = deep_tailed_graph(body, tail, seed);
        let (small, _, _) = deep_tailed_graph(12, 30, seed ^ 1);
        check::<1>(&g, &body_ids, &tail_ids, &small, seed);
        check::<2>(&g, &body_ids, &tail_ids, &small, seed ^ 2);
        check::<4>(&g, &body_ids, &tail_ids, &small, seed ^ 4);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a graph past the split gate takes ~40 s unoptimised; CI runs it in release"
)]
fn msbfs_level_split_is_thread_invariant() {
    // 40,000 body nodes put the graph past the 2^15-node split gate, so
    // at 2 and 3 threads every bottom-up level and plane decode splits
    // into node ranges; the workspace's split counter proves it did, and
    // never moves at 1 thread. Rows must be bit-identical at every thread
    // count, through the workspace and the batched entry points: at every
    // width on the deep graph (a 600-node tail, three plane windows), and
    // at 64 lanes on the shallow one (no tail, so the byte fill succeeds).
    // `run` stays serial: its visit order, hashed, never changes.
    use navigability::graph::msbfs::{
        batched_compact_rows_w, batched_rows_into_w, LaneWidth, MsBfsW,
    };
    fn fills<const W: usize>(
        g: &Graph,
        sources: &[u32],
        threads: usize,
    ) -> (Vec<u32>, Option<Vec<u8>>) {
        let n = g.num_nodes();
        let k = sources.len();
        let mut ms = MsBfsW::<W>::new(n);
        ms.set_threads(threads);
        let rows = ms.distances(g, sources);
        let mut bytes = vec![0u8; k * n];
        let bytes = ms
            .distances_into_bytes(g, sources, &mut bytes)
            .then_some(bytes);
        assert_eq!(ms.split_levels() > 0, threads > 1, "threads {threads}");
        (rows, bytes)
    }
    fn visit_hash<const W: usize>(g: &Graph, sources: &[u32], threads: usize) -> u64 {
        let mut ms = MsBfsW::<W>::new(g.num_nodes());
        ms.set_threads(threads);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        ms.run(g, sources, |lane, v, d| {
            for x in [lane, v, d] {
                h = (h ^ x as u64).wrapping_mul(0x0100_0000_01b3);
            }
        });
        assert_eq!(ms.split_levels(), 0, "run never splits");
        h
    }
    fn check<const W: usize>(g: &Graph, sources: &[u32], width: LaneWidth) {
        let n = g.num_nodes();
        let base = fills::<W>(g, sources, 1);
        let compact = batched_compact_rows_w(g, sources, 1, width);
        for threads in [2, 3] {
            assert!(
                fills::<W>(g, sources, threads) == base,
                "W={W} threads {threads}"
            );
            let mut rows = vec![0u32; sources.len() * n];
            batched_rows_into_w(g, sources, threads, width, &mut rows);
            assert!(rows == base.0, "W={W} batched rows at {threads} threads");
            let got = batched_compact_rows_w(g, sources, threads, width);
            assert!(got == compact, "W={W} compact rows at {threads} threads");
        }
        for (i, row) in compact.iter().enumerate() {
            assert!(row.is_narrow());
            assert!(
                (0..n).all(|v| row.get(v) == base.0[i * n + v]),
                "W={W} row {i}"
            );
        }
    }
    for tail in [600, 0] {
        let (g, body, tail_ids) = deep_tailed_graph(40_000, tail, 11);
        let tail_end = tail_ids.last().copied().unwrap_or(body[1]);
        let sources = |k: usize| -> Vec<u32> {
            (0..k)
                .map(|i| if i % 5 == 4 { tail_end } else { body[i * 97] })
                .collect()
        };
        check::<1>(&g, &sources(64), LaneWidth::W64);
        let order = visit_hash::<1>(&g, &sources(64), 1);
        for threads in [2, 3] {
            assert_eq!(visit_hash::<1>(&g, &sources(64), threads), order);
        }
        if tail > 0 {
            check::<2>(&g, &sources(100), LaneWidth::W128);
            check::<4>(&g, &sources(130), LaneWidth::W256);
        }
    }
}
