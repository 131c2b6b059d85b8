//! Exact expected greedy-routing steps for explicit schemes.
//!
//! For a scheme with enumerable `φ_u`, the expected number of steps from
//! `u` to a fixed target `t` satisfies
//!
//! ```text
//! E[t] = 0
//! E[u] = 1 + Σ_v φ_u(v)·E[next(u, v)] + (1 − Σ_v φ_u(v))·E[next(u, ⊥)]
//! ```
//!
//! where `next(u, v)` is the greedy hop given contact `v` (local best on
//! ties, same rule as the Monte-Carlo engine). Because every hop strictly
//! decreases `dist(·, t)`, processing nodes by increasing target distance
//! makes the recursion well-founded — no linear systems needed. This gives
//! a zero-variance oracle to validate the Monte-Carlo pipeline and to
//! compute tiny-instance greedy diameters exactly.

use crate::oracle::TargetDistanceCache;
use crate::routing::GreedyRouter;
use crate::scheme::ExplicitScheme;
use nav_graph::msbfs::LANES;
use nav_graph::{Graph, GraphError, NodeId, INFINITY};

/// Exact `E[steps u → t]` for every source `u`, or an error if some node
/// cannot reach `t`.
pub fn exact_expected_steps<S: ExplicitScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    target: NodeId,
) -> Result<Vec<f64>, GraphError> {
    let router = GreedyRouter::new(g, target)?;
    exact_expected_steps_for_router(scheme, &router)
}

/// [`exact_expected_steps`] against an existing router (fresh or borrowed
/// from a [`TargetDistanceCache`]) — no extra BFS.
pub fn exact_expected_steps_for_router<S: ExplicitScheme + ?Sized>(
    scheme: &S,
    router: &GreedyRouter<'_>,
) -> Result<Vec<f64>, GraphError> {
    let g = router.graph();
    let target = router.target();
    let n = g.num_nodes();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    for u in &order {
        if router.dist_to_target(*u) == INFINITY {
            return Err(GraphError::NotConnected);
        }
    }
    order.sort_unstable_by_key(|&u| router.dist_to_target(u));
    let mut expected = vec![f64::NAN; n];
    for &u in &order {
        if u == target {
            expected[u as usize] = 0.0;
            continue;
        }
        let local = router
            .local_next(u)
            .expect("connected non-target node has a neighbour");
        let e_local = expected[local as usize];
        debug_assert!(e_local.is_finite(), "local hop not yet computed");
        let mut total_p = 0.0;
        let mut acc = 0.0;
        for (v, p) in scheme.contact_distribution(g, u) {
            total_p += p;
            let next = router.next_hop(u, Some(v)).expect("hop exists");
            let e_next = expected[next as usize];
            debug_assert!(
                e_next.is_finite(),
                "next hop at larger distance?! u={u} v={v} next={next}"
            );
            acc += p * e_next;
        }
        // Numerical guard: clamp total probability into [0, 1].
        let leftover = (1.0 - total_p).max(0.0);
        expected[u as usize] = 1.0 + acc + leftover * e_local;
    }
    Ok(expected)
}

/// Exact greedy diameter of `(G, φ)`: `max_{s,t} E[steps s → t]` over all
/// pairs. `O(n)` evaluator runs of `O(n · support)` each — small graphs.
/// Target rows come from the distance oracle, 64 targets per bit-parallel
/// BFS pass, one oracle per 64-target chunk, so at most 64 compact rows
/// are resident (`O(64·n)` instead of `O(n²)`).
pub fn exact_greedy_diameter<S: ExplicitScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
) -> Result<f64, GraphError> {
    let all: Vec<NodeId> = g.nodes().collect();
    let mut worst = 0.0f64;
    for chunk in all.chunks(LANES) {
        let oracle = TargetDistanceCache::build(g, chunk.iter().copied(), 1)?;
        for &t in chunk {
            let router = oracle.router(t).expect("chunk target cached");
            let e = exact_expected_steps_for_router(scheme, &router)?;
            for v in e {
                worst = worst.max(v);
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;
    use nav_par::rng::task_rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn no_augmentation_gives_exact_distances() {
        let g = path(12);
        let e = exact_expected_steps(&g, &NoAugmentation, 11).unwrap();
        for u in 0..12u32 {
            assert!((e[u as usize] - (11 - u) as f64).abs() < 1e-12);
        }
        let d = exact_greedy_diameter(&g, &NoAugmentation).unwrap();
        assert!((d - 11.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_on_two_nodes() {
        // From node 0 to target 1: contact uniform over {0, 1}; either way
        // the greedy hop is 1 (local best already adjacent). E = 1.
        let g = path(2);
        let e = exact_expected_steps(&g, &UniformScheme, 1).unwrap();
        assert!((e[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_on_path3_hand_computed() {
        // Path 0-1-2, target 2. E[2]=0, E[1]=1 (local next is 2; contact
        // can only tie or lose). From 0: contact 2 w.p. 1/3 → next=2
        // (E 0); otherwise next=1 (E 1). E[0] = 1 + (2/3)·1 = 5/3.
        let g = path(3);
        let e = exact_expected_steps(&g, &UniformScheme, 2).unwrap();
        assert!((e[2] - 0.0).abs() < 1e-12);
        assert!((e[1] - 1.0).abs() < 1e-12);
        assert!((e[0] - 5.0 / 3.0).abs() < 1e-12, "e[0] = {}", e[0]);
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        use crate::routing::default_step_cap;
        let g = path(24);
        let scheme = UniformScheme;
        let target = 23;
        let exact = exact_expected_steps(&g, &scheme, target).unwrap();
        let router = GreedyRouter::new(&g, target).unwrap();
        let trials = 6000;
        for s in [0u32, 7, 15] {
            let mut sum = 0f64;
            for t in 0..trials {
                let mut rng = task_rng(99, t as u64);
                sum += router
                    .route(&scheme, s, &mut rng, default_step_cap(&g), false)
                    .steps as f64;
            }
            let mc = sum / trials as f64;
            let ex = exact[s as usize];
            // 3.5σ-ish tolerance; steps ≤ 23 so σ ≤ ~6.
            assert!(
                (mc - ex).abs() < 0.4,
                "source {s}: MC {mc:.3} vs exact {ex:.3}"
            );
        }
    }

    #[test]
    fn theorem2_exact_within_fallback_factor_of_uniform() {
        // At small n the (M,L) hierarchy hasn't paid off yet (its uniform
        // half runs at half rate), but the fallback argument bounds it
        // within a small constant factor of the pure uniform scheme; the
        // asymptotic win is what experiment E3 demonstrates at scale.
        use crate::theorem2::Theorem2Scheme;
        use nav_decomp::construct::path_graph_pd;
        let g = path(32);
        let t2 = Theorem2Scheme::new(&g, &path_graph_pd(32));
        let d2 = exact_greedy_diameter(&g, &t2).unwrap();
        let du = exact_greedy_diameter(&g, &UniformScheme).unwrap();
        assert!(
            d2 <= 2.5 * du,
            "theorem2 {d2:.2} beyond fallback factor of uniform {du:.2}"
        );
        // And both massively beat the unaugmented diameter 31.
        assert!(d2 < 16.0);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(exact_expected_steps(&g, &UniformScheme, 0).is_err());
        assert!(exact_greedy_diameter(&g, &UniformScheme).is_err());
    }

    #[test]
    fn expected_steps_bounded_by_distance() {
        // Augmentation can only help: E[u] ≤ dist(u, t) always.
        let g = path(20);
        let e = exact_expected_steps(&g, &UniformScheme, 19).unwrap();
        for u in 0..20u32 {
            let d = (19 - u) as f64;
            assert!(e[u as usize] <= d + 1e-9, "u={u}");
            if u != 19 {
                assert!(e[u as usize] >= 1.0 - 1e-12);
            }
        }
    }
}
