//! Graph identity: every generator and workload family builds the same
//! CSR arrays it always has, and the linear-pass construction (scatter
//! with no per-node sort, union-find components, in-place bridge merge)
//! agrees with straightforward references on arbitrary edge lists.
//!
//! Answers are a pure function of the graph, so a construction change
//! that moved one adjacency entry would silently change every answer
//! while every determinism check (which rebuilds the graph with the same
//! code) still passed. The pinned digests below are the guard.

use nav_bench::workloads::Workload;
use navigability::gen::random::{gnp_connected, random_geometric, random_regular};
use navigability::graph::components::{components, connect_components, Components};
use navigability::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

/// FNV-1a over `n`, `m`, then every node's degree and sorted neighbours:
/// a digest of the whole CSR (`offsets`, `targets` and `num_edges`).
fn csr_digest(g: &Graph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(g.num_nodes() as u64).to_le_bytes());
    eat(&(g.num_edges() as u64).to_le_bytes());
    for u in g.nodes() {
        eat(&(g.degree(u) as u64).to_le_bytes());
        for &v in g.neighbors(u) {
            eat(&v.to_le_bytes());
        }
    }
    h
}

#[test]
fn every_workload_family_builds_its_pinned_csr() {
    // (family, n, seed) → (nodes, edges, digest). The `5606…` seed is
    // the graph seed servebench derives from `--seed 1`, so three pins
    // are its gnp and grid2d graphs at n = 4096 and its gnp at n = 10^6
    // (`scan-cold-1m`, 2,528 components to bridge); the gnp at n = 10^5
    // bridges 246 components.
    let pins: [(Workload, usize, u64, usize, usize, u64); 13] = [
        (Workload::Path, 1000, 1, 1000, 999, 0x19ff_8234_9120_4528),
        (Workload::Path, 4096, 7, 4096, 4095, 0xf15a_0b56_9670_6849),
        (
            Workload::Grid2d,
            4096,
            5_606_452_940_443_108_951,
            4096,
            8064,
            0x68c8_a294_e02f_2520,
        ),
        (
            Workload::Grid2d,
            10_000,
            3,
            10_000,
            19_800,
            0xd40c_d9f4_bc03_6f81,
        ),
        (
            Workload::RandomTree,
            1000,
            1,
            1000,
            999,
            0xe815_58f2_7b5f_dfc0,
        ),
        (
            Workload::RandomTree,
            20_000,
            9,
            20_000,
            19_999,
            0xa135_a63f_ce08_b7fa,
        ),
        (
            Workload::Gnp,
            4096,
            5_606_452_940_443_108_951,
            4096,
            12_342,
            0x4657_204b_12cb_ab76,
        ),
        (
            Workload::Gnp,
            100_000,
            2,
            100_000,
            299_024,
            0xc1e7_3836_ce4e_600d,
        ),
        (
            Workload::Gnp,
            1_000_000,
            5_606_452_940_443_108_951,
            1_000_000,
            2_999_227,
            0x5b64_6d38_3926_8a80,
        ),
        (
            Workload::Lollipop,
            1000,
            1,
            1000,
            9100,
            0x8440_6454_0e16_c3ed,
        ),
        (
            Workload::Lollipop,
            5000,
            2,
            5000,
            61_496,
            0xec60_b4bb_fa08_0538,
        ),
        (Workload::Comb, 1000, 1, 990, 989, 0x16f3_c1d1_7d8c_f647),
        (Workload::Comb, 4096, 3, 4095, 4094, 0x010e_eb00_21fc_647b),
    ];
    for (w, n, seed, nodes, edges, digest) in pins {
        let g = w.build(n, seed);
        assert_eq!(
            (g.num_nodes(), g.num_edges(), csr_digest(&g)),
            (nodes, edges, digest),
            "{} n={n} seed={seed}",
            w.name()
        );
    }
}

#[test]
fn random_generators_build_their_pinned_csr() {
    let rng = rand::rngs::StdRng::seed_from_u64;
    // Far below the connectivity threshold: 2,516 components to bridge.
    let g = gnp_connected(5000, 1.0 / 5000.0, &mut rng(4)).unwrap();
    assert_eq!(
        (g.num_edges(), csr_digest(&g)),
        (5001, 0xe0ec_8d06_0166_c0a6)
    );
    let g = random_geometric(3000, 0.02, &mut rng(5)).unwrap();
    assert_eq!(
        (g.num_edges(), csr_digest(&g)),
        (5801, 0xbf18_e49b_59de_374e)
    );
    let g = random_regular(2000, 6, &mut rng(3)).unwrap();
    assert_eq!(
        (g.num_edges(), csr_digest(&g)),
        (6000, 0xb7dd_d7cd_55ad_64b5)
    );
}

/// Node count plus an unsorted edge list with repeats, both orientations
/// and self-loop pairs (dropped before building).
fn edge_lists(max_n: usize) -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (1usize..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..3 * n);
        (Just(n), edges).prop_map(|(n, mut edges)| {
            edges.retain(|&(u, v)| u != v);
            // Every third edge again, reversed: guaranteed duplicates.
            let again: Vec<_> = edges.iter().step_by(3).map(|&(u, v)| (v, u)).collect();
            edges.extend(again);
            (n, edges)
        })
    })
}

/// Adjacency lists built the obvious way: both directions of every
/// edge, then each run sorted and deduplicated.
fn sorted_runs(n: usize, edges: &[(NodeId, NodeId)]) -> Vec<Vec<NodeId>> {
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    for run in &mut adj {
        run.sort_unstable();
        run.dedup();
    }
    adj
}

/// Components by one BFS per unlabelled node, in ascending node order.
fn bfs_components(g: &Graph) -> Components {
    let n = g.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    for s in 0..n {
        if label[s] != u32::MAX {
            continue;
        }
        let c = sizes.len() as u32;
        label[s] = c;
        let mut queue = std::collections::VecDeque::from([s as NodeId]);
        let mut size = 0;
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = c;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { label, sizes }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn build_equals_a_reference_that_sorts_every_run(input in edge_lists(120)) {
        let (n, edges) = input;
        let g = GraphBuilder::from_edges(n, edges.iter().copied()).unwrap();
        let adj = sorted_runs(n, &edges);
        prop_assert_eq!(g.num_edges(), adj.iter().map(Vec::len).sum::<usize>() / 2);
        for u in g.nodes() {
            prop_assert_eq!(g.neighbors(u), adj[u as usize].as_slice(), "node {}", u);
        }
    }

    #[test]
    fn components_equal_a_bfs_labelling(input in edge_lists(120)) {
        let (n, edges) = input;
        let g = GraphBuilder::from_edges(n, edges).unwrap();
        prop_assert_eq!(components(&g), bfs_components(&g));
    }

    #[test]
    fn connect_components_equals_the_edge_list_rebuild(input in edge_lists(120)) {
        let (n, edges) = input;
        let g = GraphBuilder::from_edges(n, edges).unwrap();
        // The bridges: consecutive components' smallest nodes, appended
        // to the graph's own edge list and rebuilt from scratch.
        let comps = bfs_components(&g);
        let mut representative: Vec<NodeId> = Vec::new();
        for v in g.nodes() {
            if comps.label[v as usize] as usize == representative.len() {
                representative.push(v);
            }
        }
        let bridges: Vec<_> = representative.windows(2).map(|w| (w[0], w[1])).collect();
        let rebuilt = GraphBuilder::from_edges(n, g.edges().chain(bridges.iter().copied())).unwrap();
        let (merged, added) = connect_components(g);
        prop_assert_eq!(added, bridges.len());
        prop_assert_eq!(merged, rebuilt);
    }
}
