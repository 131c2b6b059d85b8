//! Greedy routing in augmented graphs.
//!
//! The oblivious protocol of the paper: at the current node `u` with
//! target `t`, forward to the neighbour — among `u`'s local neighbours
//! **and `u`'s own long-range contact** — closest to `t` in the underlying
//! metric `dist_G`. Nodes know `dist_G` but not each other's long-range
//! links.
//!
//! Implementation notes:
//! * one distance row from the target serves the whole trial — computed by
//!   a fresh BFS ([`GreedyRouter::new`]) or borrowed as a compact
//!   [`DistRowView`] ([`GreedyRouter::from_row`]) from the batched
//!   [`crate::oracle::TargetDistanceCache`] or the serving engine's row
//!   cache;
//! * the long-range contact of each visited node is sampled lazily
//!   (deferred decisions — exact because greedy routing never revisits:
//!   the best local neighbour already strictly decreases the distance);
//! * ties are broken toward the local neighbour and then by smallest node
//!   id, making trials reproducible given the RNG seed.

use crate::faulty::FailurePlan;
use crate::sampler::{ContactSampler, ScalarSampler};
use crate::scheme::AugmentationScheme;
use nav_graph::distance::DistRowView;
use nav_graph::{bfs::Bfs, Graph, GraphError, NodeId, INFINITY};
use rand::RngCore;
use std::cell::Cell;

/// Outcome of one greedy-routing trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Steps taken (edges traversed).
    pub steps: u32,
    /// Whether the target was reached (always true on connected graphs —
    /// kept for robustness against disconnected inputs + step caps).
    pub reached: bool,
    /// How many of the steps used a long-range link.
    pub long_links_used: u32,
    /// The visited nodes `s, …, t` if path recording was requested.
    pub path: Option<Vec<NodeId>>,
}

/// The router's target-distance row: owned (one BFS), or a borrowed
/// compact row at either storage width, routed on without any copy or
/// widening.
enum Row<'g> {
    Owned(Vec<u32>),
    View(DistRowView<'g>),
}

impl Row<'_> {
    #[inline]
    fn get(&self, i: usize) -> u32 {
        match self {
            Row::Owned(v) => v[i],
            Row::View(v) => v.get(i),
        }
    }
}

/// A churn view bound to one epoch, plus the tallies fault-aware routing
/// accumulates. The counters are `Cell`s so the read-only routing API
/// (`&self`) can count without threading mutability through every step —
/// a router is built per worker and never shared across threads.
struct FaultState {
    plan: FailurePlan,
    epoch: u64,
    dropped: Cell<u64>,
    rerouted: Cell<u64>,
}

/// A router bound to one (graph, target) pair; reusable across sources and
/// trials. The target-distance row is either owned (computed by one BFS)
/// or borrowed via [`GreedyRouter::from_row`].
pub struct GreedyRouter<'g> {
    g: &'g Graph,
    target: NodeId,
    dist_t: Row<'g>,
    fault: Option<FaultState>,
}

impl<'g> GreedyRouter<'g> {
    /// Builds the router (runs one BFS from `target`).
    pub fn new(g: &'g Graph, target: NodeId) -> Result<Self, GraphError> {
        g.check_node(target)?;
        let mut bfs = Bfs::new(g.num_nodes());
        let dist_t = Row::Owned(bfs.distances(g, target));
        Ok(GreedyRouter {
            g,
            target,
            dist_t,
            fault: None,
        })
    }

    /// Builds the router on a borrowed, precomputed distance row
    /// (`dist_t.get(v) = dist_G(v, target)`) — no BFS. This is how the
    /// distance oracle and the serving engine's row cache hand out
    /// routers. Narrow (`u16`) values are decoded on the fly, so routing
    /// decisions are bit-identical at either storage width.
    ///
    /// # Panics
    /// Panics if `dist_t.len() != g.num_nodes()` or
    /// `dist_t.get(target) != 0` (a row that cannot be a distance row of
    /// `target`).
    pub fn from_row(
        g: &'g Graph,
        target: NodeId,
        dist_t: DistRowView<'g>,
    ) -> Result<Self, GraphError> {
        g.check_node(target)?;
        assert_eq!(
            dist_t.len(),
            g.num_nodes(),
            "distance row length must equal node count"
        );
        assert_eq!(
            dist_t.get(target as usize),
            0,
            "row is not a distance row of target {target}"
        );
        Ok(GreedyRouter {
            g,
            target,
            dist_t: Row::View(dist_t),
            fault: None,
        })
    }

    /// Binds the router to one epoch of a node-churn [`FailurePlan`]:
    /// every subsequent step treats the epoch's down nodes as
    /// unforwardable — a down contact is discarded, the local scan
    /// considers only live neighbours (the paper's best-live-hop
    /// fallback), and a walk whose every improving neighbour is down
    /// gets stuck (surfaced as `reached == false` by the trial layer).
    /// The routing target itself is exempt: it is the node asking.
    ///
    /// The fault-free path (`fault == None`) is untouched, bit for bit.
    pub fn with_fault(mut self, plan: FailurePlan, epoch: u64) -> Self {
        self.fault = Some(FaultState {
            plan,
            epoch,
            dropped: Cell::new(0),
            rerouted: Cell::new(0),
        });
        self
    }

    /// The fault tallies accumulated so far:
    /// `(contacts discarded because the contact node was down,
    ///   hops where the fault-free winner was down and routing fell back
    ///   to a different live hop)`. `(0, 0)` without a fault view.
    pub fn fault_counts(&self) -> (u64, u64) {
        match &self.fault {
            Some(f) => (f.dropped.get(), f.rerouted.get()),
            None => (0, 0),
        }
    }

    /// The churn epoch this router is bound to, when it has a fault view.
    pub fn fault_epoch(&self) -> Option<u64> {
        self.fault.as_ref().map(|f| f.epoch)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The routing target.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// `dist_G(u, target)`.
    #[inline]
    pub fn dist_to_target(&self, u: NodeId) -> u32 {
        self.dist_t.get(u as usize)
    }

    /// The greedy *local* next hop from `u`: the neighbour closest to the
    /// target, smallest id on ties. On a connected graph this neighbour is
    /// at distance exactly `dist(u, t) − 1`.
    pub fn local_next(&self, u: NodeId) -> Option<NodeId> {
        self.local_best(u).map(|(_, v)| v)
    }

    /// [`GreedyRouter::local_next`] with the winner's target distance.
    fn local_best(&self, u: NodeId) -> Option<(u32, NodeId)> {
        let mut best: Option<(u32, NodeId)> = None;
        for &v in self.g.neighbors(u) {
            let d = self.dist_t.get(v as usize);
            // Sorted adjacency ⇒ first strict improvement wins ties by id.
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, v));
            }
        }
        best
    }

    /// One greedy step from `u` given an already-drawn contact: the next
    /// hop plus whether the move used the long-range link (the contact
    /// won *and* is not also a local edge). `None` when no neighbour
    /// improves (an isolated node with a useless contact). This is the
    /// single definition of step semantics — the sequential walk
    /// ([`GreedyRouter::route_with`]) and the trial engine's lockstep
    /// rounds both take steps through it.
    #[inline]
    pub fn step(&self, u: NodeId, contact: Option<NodeId>) -> Option<(NodeId, bool)> {
        if let Some(f) = &self.fault {
            return self.step_faulty(u, contact, f);
        }
        let next = self.next_hop(u, contact)?;
        debug_assert!(
            self.dist_t.get(next as usize) < self.dist_t.get(u as usize),
            "greedy step must strictly decrease target distance"
        );
        let long = Some(next) == contact && self.g.neighbors(u).binary_search(&next).is_err();
        Some((next, long))
    }

    /// Whether churn has `v` down in this router's epoch (the target is
    /// exempt — it is the node asking the query).
    #[inline]
    fn down(&self, v: NodeId, f: &FaultState) -> bool {
        v != self.target && f.plan.is_down(f.epoch, v)
    }

    /// One step under node churn: a down contact cannot be forwarded to,
    /// the local scan is restricted to live neighbours, and the chosen
    /// hop must still strictly decrease the target distance — greedy's
    /// termination guarantee. When churn has taken every improving
    /// neighbour down the walk is stuck and the step returns `None`
    /// (the caller records the trial as a failure — this is exactly the
    /// degradation signal the fault benches measure).
    fn step_faulty(
        &self,
        u: NodeId,
        contact: Option<NodeId>,
        f: &FaultState,
    ) -> Option<(NodeId, bool)> {
        let live_contact = match contact {
            Some(c) if self.down(c, f) => {
                f.dropped.set(f.dropped.get() + 1);
                None
            }
            c => c,
        };
        // One scan finds both the fault-free and the live local winner;
        // liveness is hashed only for a neighbour that would beat the
        // live winner so far.
        let mut free_local: Option<(u32, NodeId)> = None;
        let mut live_local: Option<(u32, NodeId)> = None;
        for &v in self.g.neighbors(u) {
            let d = self.dist_t.get(v as usize);
            if free_local.is_none_or(|(bd, _)| d < bd) {
                free_local = Some((d, v));
            }
            if live_local.is_none_or(|(bd, _)| d < bd) && !self.down(v, f) {
                live_local = Some((d, v));
            }
        }
        let next = self.pick(u, live_local, live_contact)?;
        if self.dist_t.get(next as usize) >= self.dist_t.get(u as usize) {
            return None; // stuck: no live neighbour improves
        }
        // Filtering only removes candidates, so when the fault-free
        // winner is live it is also the live winner; the hop rerouted
        // exactly when the two differ.
        if self.pick(u, free_local, contact) != Some(next) {
            f.rerouted.set(f.rerouted.get() + 1);
        }
        let long = Some(next) == live_contact && self.g.neighbors(u).binary_search(&next).is_err();
        Some((next, long))
    }

    /// The greedy next hop given an already-drawn long-range contact.
    /// The contact wins only when **strictly** closer than the best local
    /// neighbour (ties → local, then smallest id; the paper allows any
    /// tie-breaking).
    pub fn next_hop(&self, u: NodeId, contact: Option<NodeId>) -> Option<NodeId> {
        self.pick(u, self.local_best(u), contact)
    }

    /// The greedy choice at `u` between the best local neighbour (with
    /// its target distance) and a contact, by [`Self::next_hop`]'s rule.
    #[inline]
    fn pick(
        &self,
        u: NodeId,
        local: Option<(u32, NodeId)>,
        contact: Option<NodeId>,
    ) -> Option<NodeId> {
        match (local, contact) {
            (None, c) => c.filter(|&v| self.dist_t.get(v as usize) < self.dist_t.get(u as usize)),
            (Some((_, l)), None) => Some(l),
            (Some((dl, l)), Some(c)) => {
                if self.dist_t.get(c as usize) < dl {
                    Some(c)
                } else {
                    Some(l)
                }
            }
        }
    }

    /// Routes one trial from `source` to the bound target, sampling
    /// long-range contacts lazily from `scheme`.
    ///
    /// `max_steps` caps the walk (use [`default_step_cap`]); the cap only
    /// triggers on disconnected graphs or broken schemes, and is surfaced
    /// through `reached == false`.
    ///
    /// Equivalent to [`GreedyRouter::route_with`] over a
    /// [`ScalarSampler`] — the same RNG stream bit for bit.
    pub fn route<S: AugmentationScheme + ?Sized>(
        &self,
        scheme: &S,
        source: NodeId,
        rng: &mut dyn RngCore,
        max_steps: u32,
        record_path: bool,
    ) -> RouteOutcome {
        self.route_with(
            &mut ScalarSampler::new(scheme),
            source,
            rng,
            max_steps,
            record_path,
        )
    }

    /// [`GreedyRouter::route`] with the per-step draws coming from a
    /// caller-owned [`ContactSampler`] (the trial engine's sequential
    /// path; lockstep samplers are driven round by round by
    /// [`crate::trial::aggregate_pairs_with`]). The sampler outlives the
    /// call, so its state persists across the trials routed through it.
    pub fn route_with<C: ContactSampler + ?Sized>(
        &self,
        sampler: &mut C,
        source: NodeId,
        rng: &mut dyn RngCore,
        max_steps: u32,
        record_path: bool,
    ) -> RouteOutcome {
        let mut u = source;
        let mut steps = 0u32;
        let mut long_links_used = 0u32;
        let mut path = if record_path {
            Some(vec![source])
        } else {
            None
        };
        while u != self.target && steps < max_steps {
            if self.dist_t.get(u as usize) == INFINITY {
                break; // target unreachable from here
            }
            let contact = sampler.sample(self.g, u, rng);
            let Some((next, long)) = self.step(u, contact) else {
                break; // isolated node and useless contact
            };
            long_links_used += long as u32;
            if let Some(p) = path.as_mut() {
                p.push(next);
            }
            u = next;
            steps += 1;
        }
        RouteOutcome {
            steps,
            reached: u == self.target,
            long_links_used,
            path,
        }
    }
}

/// A generous step cap: `dist(s,t) ≤ steps` always, and greedy strictly
/// decreases distance, so `n` steps can never be exceeded on a connected
/// graph; the cap `n + 1` detects violations without masking them.
pub fn default_step_cap(g: &Graph) -> u32 {
    g.num_nodes() as u32 + 1
}

/// One-shot convenience: builds a fresh router and routes once.
pub fn route_with_fresh_oracle<S: AugmentationScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    source: NodeId,
    target: NodeId,
    rng: &mut dyn RngCore,
) -> Result<RouteOutcome, GraphError> {
    g.check_node(source)?;
    let router = GreedyRouter::new(g, target)?;
    Ok(router.route(scheme, source, rng, default_step_cap(g), false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;
    use nav_par::rng::seeded_rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn no_augmentation_walks_shortest_path() {
        let g = path(20);
        let router = GreedyRouter::new(&g, 19).unwrap();
        let mut rng = seeded_rng(1);
        let out = router.route(&NoAugmentation, 0, &mut rng, default_step_cap(&g), true);
        assert!(out.reached);
        assert_eq!(out.steps, 19);
        assert_eq!(out.long_links_used, 0);
        let p = out.path.unwrap();
        assert_eq!(p.len(), 20);
        assert_eq!(p[0], 0);
        assert_eq!(p[19], 19);
    }

    #[test]
    fn zero_length_route() {
        let g = path(5);
        let router = GreedyRouter::new(&g, 2).unwrap();
        let mut rng = seeded_rng(2);
        let out = router.route(&NoAugmentation, 2, &mut rng, default_step_cap(&g), true);
        assert!(out.reached);
        assert_eq!(out.steps, 0);
        assert_eq!(out.path.unwrap(), vec![2]);
    }

    #[test]
    fn uniform_never_slower_than_shortest_path() {
        let g = path(64);
        let router = GreedyRouter::new(&g, 63).unwrap();
        let mut rng = seeded_rng(3);
        for _ in 0..50 {
            let out = router.route(&UniformScheme, 0, &mut rng, default_step_cap(&g), false);
            assert!(out.reached);
            assert!(out.steps <= 63);
            assert!(out.steps >= 1);
        }
    }

    #[test]
    fn distance_strictly_decreases_along_path() {
        let g = path(100);
        let router = GreedyRouter::new(&g, 99).unwrap();
        let mut rng = seeded_rng(4);
        let out = router.route(&UniformScheme, 0, &mut rng, default_step_cap(&g), true);
        let p = out.path.unwrap();
        let mut prev = router.dist_to_target(p[0]);
        for &v in &p[1..] {
            let d = router.dist_to_target(v);
            assert!(d < prev, "distance increased: {prev} -> {d}");
            prev = d;
        }
    }

    #[test]
    fn long_links_counted() {
        // A scheme that always points at the target from anywhere.
        struct Teleport(NodeId);
        impl AugmentationScheme for Teleport {
            fn name(&self) -> String {
                "teleport".into()
            }
            fn sample_contact(
                &self,
                _g: &Graph,
                _u: NodeId,
                _rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                Some(self.0)
            }
        }
        let g = path(50);
        let router = GreedyRouter::new(&g, 49).unwrap();
        let mut rng = seeded_rng(5);
        let out = router.route(&Teleport(49), 0, &mut rng, default_step_cap(&g), false);
        assert!(out.reached);
        assert_eq!(out.steps, 1);
        assert_eq!(out.long_links_used, 1);
        // From node 48 the "long link" to 49 coincides with a local edge:
        // must not be counted as long.
        let out = router.route(&Teleport(49), 48, &mut rng, default_step_cap(&g), false);
        assert_eq!(out.steps, 1);
        assert_eq!(out.long_links_used, 0);
    }

    #[test]
    fn contact_ties_prefer_local() {
        // Contact at same distance as best local neighbour must lose.
        struct FixedContact(NodeId);
        impl AugmentationScheme for FixedContact {
            fn name(&self) -> String {
                "fixed".into()
            }
            fn sample_contact(
                &self,
                _g: &Graph,
                _u: NodeId,
                _rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                Some(self.0)
            }
        }
        // Cycle of 6, target 3. From node 0 both neighbours (1, 5) are at
        // distance 2; a contact at node 5 ties with local best 1 → local 1
        // wins (smallest id among closest locals).
        let g = GraphBuilder::from_edges(6, (0..6u32).map(|u| (u, (u + 1) % 6))).unwrap();
        let router = GreedyRouter::new(&g, 3).unwrap();
        assert_eq!(router.local_next(0), Some(1));
        assert_eq!(router.next_hop(0, Some(5)), Some(1));
        // Strictly better contact wins.
        assert_eq!(router.next_hop(0, Some(2)), Some(2));
        let mut rng = seeded_rng(6);
        let out = router.route(&FixedContact(5), 0, &mut rng, default_step_cap(&g), true);
        assert_eq!(out.path.unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_target_reports_not_reached() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let router = GreedyRouter::new(&g, 3).unwrap();
        let mut rng = seeded_rng(7);
        let out = router.route(&NoAugmentation, 0, &mut rng, default_step_cap(&g), false);
        assert!(!out.reached);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn step_cap_respected() {
        let g = path(100);
        let router = GreedyRouter::new(&g, 99).unwrap();
        let mut rng = seeded_rng(8);
        let out = router.route(&NoAugmentation, 0, &mut rng, 10, false);
        assert!(!out.reached);
        assert_eq!(out.steps, 10);
    }

    #[test]
    fn from_row_routes_like_fresh_router() {
        let g = path(40);
        let fresh = GreedyRouter::new(&g, 39).unwrap();
        let row: Vec<u32> = (0..40).map(|v| fresh.dist_to_target(v)).collect();
        let borrowed = GreedyRouter::from_row(&g, 39, DistRowView::Wide(&row)).unwrap();
        let out_f = fresh.route(
            &UniformScheme,
            0,
            &mut seeded_rng(11),
            default_step_cap(&g),
            true,
        );
        let out_b = borrowed.route(
            &UniformScheme,
            0,
            &mut seeded_rng(11),
            default_step_cap(&g),
            true,
        );
        assert_eq!(out_f, out_b);
        assert!(GreedyRouter::from_row(&g, 40, DistRowView::Wide(&row)).is_err());
    }

    #[test]
    fn from_narrow_row_view_routes_identically() {
        use nav_graph::distance::DistRowBuf;
        let g = path(50);
        let fresh = GreedyRouter::new(&g, 49).unwrap();
        let wide: Vec<u32> = (0..50).map(|v| fresh.dist_to_target(v)).collect();
        let compact = DistRowBuf::from_wide(&wide);
        assert!(compact.is_narrow());
        let narrow = GreedyRouter::from_row(&g, 49, compact.view()).unwrap();
        assert_eq!(narrow.dist_to_target(0), 49);
        let out_f = fresh.route(
            &UniformScheme,
            0,
            &mut seeded_rng(21),
            default_step_cap(&g),
            true,
        );
        let out_n = narrow.route(
            &UniformScheme,
            0,
            &mut seeded_rng(21),
            default_step_cap(&g),
            true,
        );
        assert_eq!(out_f, out_n);
        // Narrow INFINITY decodes as unreachable.
        let g2 = GraphBuilder::from_edges(3, [(0, 1)]).unwrap();
        let row2 = DistRowBuf::from_wide(&[0, 1, INFINITY]);
        let r2 = GreedyRouter::from_row(&g2, 0, row2.view()).unwrap();
        assert_eq!(r2.dist_to_target(2), INFINITY);
    }

    #[test]
    #[should_panic(expected = "not a distance row")]
    fn from_row_rejects_wrong_target() {
        let g = path(4);
        let fresh = GreedyRouter::new(&g, 3).unwrap();
        let row: Vec<u32> = (0..4).map(|v| fresh.dist_to_target(v)).collect();
        let _ = GreedyRouter::from_row(&g, 0, DistRowView::Wide(&row));
    }

    #[test]
    fn route_with_scalar_sampler_is_bit_identical_to_route() {
        use crate::sampler::ScalarSampler;
        let g = path(80);
        let router = GreedyRouter::new(&g, 79).unwrap();
        let direct = router.route(&UniformScheme, 0, &mut seeded_rng(13), 81, true);
        let mut sampler = ScalarSampler::new(&UniformScheme);
        let via = router.route_with(&mut sampler, 0, &mut seeded_rng(13), 81, true);
        assert_eq!(direct, via);
    }

    #[test]
    fn route_with_ball_row_sampler_reaches_target() {
        use crate::ball::{BallRowSampler, BallScheme};
        let g = path(120);
        let scheme = BallScheme::new(&g);
        let router = GreedyRouter::new(&g, 119).unwrap();
        let mut sampler = BallRowSampler::new(scheme, usize::MAX);
        let mut rng = seeded_rng(14);
        for _ in 0..8 {
            let out = router.route_with(&mut sampler, 0, &mut rng, default_step_cap(&g), false);
            assert!(out.reached);
            assert!(out.steps <= 119);
        }
        // Later trials reuse the rows the first walk filled in.
        let stats = sampler.stats();
        assert!(stats.hits > 0, "{stats:?}");
    }

    #[test]
    fn zero_churn_fault_view_is_identity() {
        use crate::faulty::FailurePlan;
        let g = path(60);
        let plain = GreedyRouter::new(&g, 59).unwrap();
        let faulty = GreedyRouter::new(&g, 59)
            .unwrap()
            .with_fault(FailurePlan::new(7, 4, 8, 0.0), 2);
        let a = plain.route(
            &UniformScheme,
            0,
            &mut seeded_rng(31),
            default_step_cap(&g),
            true,
        );
        let b = faulty.route(
            &UniformScheme,
            0,
            &mut seeded_rng(31),
            default_step_cap(&g),
            true,
        );
        assert_eq!(a, b);
        assert_eq!(faulty.fault_counts(), (0, 0));
        assert_eq!(faulty.fault_epoch(), Some(2));
        assert_eq!(plain.fault_epoch(), None);
    }

    #[test]
    fn total_churn_strands_walks_but_spares_the_target() {
        use crate::faulty::FailurePlan;
        let g = path(10);
        let plan = FailurePlan::new(3, 2, 1, 1.0); // everyone down, always
        let router = GreedyRouter::new(&g, 9).unwrap().with_fault(plan, 0);
        // From 0 the only improving neighbour (1) is down: stuck at once.
        let out = router.route(
            &NoAugmentation,
            0,
            &mut seeded_rng(1),
            default_step_cap(&g),
            false,
        );
        assert!(!out.reached);
        assert_eq!(out.steps, 0);
        // From 8 the improving neighbour IS the target, which is exempt.
        let out = router.route(
            &NoAugmentation,
            8,
            &mut seeded_rng(1),
            default_step_cap(&g),
            false,
        );
        assert!(out.reached);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn down_contact_is_discarded_and_counted() {
        use crate::faulty::FailurePlan;
        // Teleporting contact to a node churn has taken down: the walk
        // must fall back to plain local greedy and count the drop.
        struct Teleport(NodeId);
        impl AugmentationScheme for Teleport {
            fn name(&self) -> String {
                "teleport".into()
            }
            fn sample_contact(
                &self,
                _g: &Graph,
                _u: NodeId,
                _rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                Some(self.0)
            }
        }
        let g = path(12);
        let plan = FailurePlan::new(17, 4096, 1, 0.1);
        // Find an epoch where node 8 is down but the local chain 1..=7 and
        // 9..=10 is fully live (the hash is deterministic, so this scan is
        // too; target 11 is exempt by construction).
        let epoch = (0..4096u64)
            .find(|&e| {
                plan.is_down(e, 8) && (1..=10u32).filter(|&v| v != 8).all(|v| !plan.is_down(e, v))
            })
            .expect("some epoch isolates node 8");
        let router = GreedyRouter::new(&g, 11).unwrap().with_fault(plan, epoch);
        let out = router.route(
            &Teleport(8),
            0,
            &mut seeded_rng(2),
            default_step_cap(&g),
            true,
        );
        // Contact 8 is discarded at 0..=6 (at 7 it ties→local anyway, but
        // the discard happens before comparison); the walk degrades to
        // pure local stepping... except it can never pass through 8!
        // 8 sits on the only path, so the walk must strand at 7.
        assert!(!out.reached);
        assert_eq!(out.path.unwrap(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let (dropped, _) = router.fault_counts();
        assert!(dropped >= 7, "each visited node's contact 8 was down");
    }

    #[test]
    fn reroute_to_second_best_live_hop_is_counted() {
        use crate::faulty::FailurePlan;
        // Diamond 0-1, 0-2, 1-3, 2-3: from 0 both 1 and 2 improve, ties
        // break to 1. In an epoch where 1 is down and 2 live, the walk
        // must reroute through 2 and count exactly one rerouted hop.
        let g = GraphBuilder::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let plan = FailurePlan::new(23, 64, 1, 0.5);
        let epoch = (0..64u64)
            .find(|&e| plan.is_down(e, 1) && !plan.is_down(e, 2))
            .expect("some epoch downs 1 but not 2");
        let router = GreedyRouter::new(&g, 3).unwrap().with_fault(plan, epoch);
        let out = router.route(
            &NoAugmentation,
            0,
            &mut seeded_rng(3),
            default_step_cap(&g),
            true,
        );
        assert!(out.reached);
        assert_eq!(out.path.unwrap(), vec![0, 2, 3]);
        assert_eq!(router.fault_counts(), (0, 1));
    }

    #[test]
    fn fresh_oracle_convenience() {
        let g = path(10);
        let mut rng = seeded_rng(9);
        let out = route_with_fresh_oracle(&g, &NoAugmentation, 0, 9, &mut rng).unwrap();
        assert_eq!(out.steps, 9);
        assert!(route_with_fresh_oracle(&g, &NoAugmentation, 0, 10, &mut rng).is_err());
        assert!(route_with_fresh_oracle(&g, &NoAugmentation, 11, 0, &mut rng).is_err());
    }
}
