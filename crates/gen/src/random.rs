//! Random graph models: Erdős–Rényi, random regular, random geometric.

use nav_graph::components::connect_components;
use nav_graph::{Graph, GraphBuilder, GraphError, NodeId};
use rand::Rng;

/// Erdős–Rényi `G(n, p)` via geometric edge skipping, `O(n + m)` expected.
/// May be disconnected; see [`gnp_connected`].
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let total = n * n.saturating_sub(1) / 2;
    if p >= 1.0 {
        let mut b = GraphBuilder::with_capacity(n, total);
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(u as NodeId, v as NodeId);
            }
        }
        return b.build();
    }
    // The edge count is Binomial(total, p): reserve its mean plus
    // 6·√mean (at least six standard deviations), so the edge list
    // almost never regrows.
    let mean = p.max(0.0) * total as f64;
    let slack = 6.0 * mean.sqrt() + 64.0;
    let mut b = GraphBuilder::with_capacity(n, ((mean + slack) as usize).min(total));
    if p > 0.0 {
        // Walk the flattened upper-triangle index space with geometric jumps.
        let log1p = (1.0 - p).ln();
        let mut rows = TriangleRows::new(n);
        let mut idx: i64 = -1;
        loop {
            let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let skip = (r.ln() / log1p).floor() as i64 + 1;
            idx += skip.max(1);
            if idx as usize >= total {
                break;
            }
            let (u, v) = rows.unflatten_pair(idx as usize);
            b.add_edge(u as NodeId, v as NodeId);
        }
    }
    b.build()
}

/// Maps flattened upper-triangle indices back to pairs `(u, v)`, `u < v`,
/// row by row: row `u` owns the `n − 1 − u` cells after the earlier rows.
/// The geometric walk's index only grows, so the cursor only moves down
/// the rows and a whole walk costs `O(n + m)` row steps in total.
struct TriangleRows {
    n: usize,
    /// Current row.
    u: usize,
    /// Flattened index of row `u`'s first cell.
    row_start: usize,
}

impl TriangleRows {
    fn new(n: usize) -> Self {
        TriangleRows {
            n,
            u: 0,
            row_start: 0,
        }
    }

    /// The pair at flattened index `idx`, which must not be smaller than
    /// the previous call's and must lie inside the triangle.
    fn unflatten_pair(&mut self, idx: usize) -> (usize, usize) {
        debug_assert!(idx >= self.row_start, "indices must not decrease");
        loop {
            let row_len = self.n - 1 - self.u;
            if idx < self.row_start + row_len {
                return (self.u, self.u + 1 + (idx - self.row_start));
            }
            self.row_start += row_len;
            self.u += 1;
        }
    }
}

/// `G(n, p)` made connected by linking components (one bridge edge per
/// extra component, between smallest-id nodes). The result is *not* exactly
/// G(n,p)-distributed — the repair adds `c − 1` deterministic edges — but
/// for navigability experiments the metric structure is what matters and
/// above the connectivity threshold the repair is almost always a no-op.
pub fn gnp_connected(n: usize, p: f64, rng: &mut impl Rng) -> Result<Graph, GraphError> {
    let g = gnp(n, p, rng)?;
    Ok(connect_components(g).0)
}

/// Random `d`-regular simple connected graph for **even** `d`: the union
/// of `d/2` Hamiltonian cycles. The first cycle is a uniform random cycle
/// (guaranteeing connectivity); subsequent cycles are uniform cycles
/// locally *repaired* by random transpositions until they avoid all edges
/// placed so far, a vanishing perturbation of uniformity for `n ≫ d²`
/// (documented approximation — exact uniform-regular sampling is not
/// needed for an expander-like workload).
pub fn random_regular(n: usize, d: usize, rng: &mut impl Rng) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    assert!(
        d.is_multiple_of(2),
        "random_regular requires even degree, got {d}"
    );
    assert!(n > d, "need n > d for a simple d-regular graph");
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * d / 2);
    let mut seen = std::collections::HashSet::with_capacity(n * d / 2);
    for cycle_idx in 0..d / 2 {
        let order = loop {
            let mut order: Vec<NodeId> = (0..n as NodeId).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            if repair_cycle(&mut order, &seen, rng) {
                break order;
            }
            // Rare: repair failed to converge; draw a fresh cycle.
            let _ = cycle_idx;
        };
        for i in 0..n {
            let u = order[i];
            let v = order[(i + 1) % n];
            let key = (u.min(v), u.max(v));
            let fresh = seen.insert(key);
            debug_assert!(fresh, "repair left a duplicate edge");
            edges.push(key);
        }
    }
    GraphBuilder::from_edges(n, edges)
}

/// Repairs a cyclic order so that none of its edges appears in `forbidden`,
/// by swapping offending successors with random positions. Returns `false`
/// if it fails to converge within the iteration budget.
fn repair_cycle(
    order: &mut [NodeId],
    forbidden: &std::collections::HashSet<(NodeId, NodeId)>,
    rng: &mut impl Rng,
) -> bool {
    let n = order.len();
    if n < 3 {
        return forbidden.is_empty();
    }
    let edge_key = |a: NodeId, b: NodeId| (a.min(b), a.max(b));
    let budget = 20 * n + 200;
    for _ in 0..budget {
        let bad = (0..n).find(|&i| forbidden.contains(&edge_key(order[i], order[(i + 1) % n])));
        match bad {
            None => return true,
            Some(i) => {
                let j = rng.gen_range(0..n);
                order.swap((i + 1) % n, j);
            }
        }
    }
    false
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance ≤ `radius`; grid-bucket search keeps
/// it `O(n + m)`. Connectivity repaired by bridging components.
pub fn random_geometric(n: usize, radius: f64, rng: &mut impl Rng) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let radius = radius.clamp(0.0, 2.0_f64.sqrt());
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let cell = radius.max(1e-9);
    let cells_per_side = (1.0 / cell).ceil().max(1.0) as usize;
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        let cx = ((p.0 / cell) as usize).min(cells_per_side - 1);
        let cy = ((p.1 / cell) as usize).min(cells_per_side - 1);
        (cx, cy)
    };
    let mut buckets: std::collections::HashMap<(usize, usize), Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &p) in pts.iter().enumerate() {
        buckets.entry(cell_of(p)).or_default().push(i);
    }
    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for (i, &p) in pts.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 {
                    continue;
                }
                if let Some(bucket) = buckets.get(&(nx as usize, ny as usize)) {
                    for &j in bucket {
                        if j > i {
                            let q = pts[j];
                            let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
                            if d2 <= r2 {
                                b.add_edge(i as NodeId, j as NodeId);
                            }
                        }
                    }
                }
            }
        }
    }
    let g = b.build()?;
    Ok(connect_components(g).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_graph::components::is_connected;
    use nav_graph::properties::is_regular;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn unflatten_pair_enumerates_upper_triangle() {
        let n = 7;
        let mut rows = TriangleRows::new(n);
        let mut pairs = Vec::new();
        for idx in 0..(n * (n - 1) / 2) {
            pairs.push(rows.unflatten_pair(idx));
        }
        let mut expect = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                expect.push((u, v));
            }
        }
        assert_eq!(pairs, expect);
    }

    #[test]
    fn unflatten_pair_follows_jumps_across_rows() {
        let n = 40;
        let mut all = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                all.push((u, v));
            }
        }
        // Repeats, one-cell steps, and jumps over many whole rows.
        let picks = [0, 0, 1, 38, 39, 40, 300, 301, 700, 779];
        let mut rows = TriangleRows::new(n);
        for idx in picks {
            assert_eq!(rows.unflatten_pair(idx), all[idx], "idx {idx}");
        }
    }

    #[test]
    fn gnp_extremes() {
        let g = gnp(10, 0.0, &mut rng(0)).unwrap();
        assert_eq!(g.num_edges(), 0);
        let g = gnp(10, 1.0, &mut rng(0)).unwrap();
        assert_eq!(g.num_edges(), 45);
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, &mut rng(3)).unwrap();
        let expect = (n * (n - 1) / 2) as f64 * p;
        let m = g.num_edges() as f64;
        assert!(
            (m - expect).abs() < 4.0 * expect.sqrt() + 50.0,
            "m={m} expect={expect}"
        );
    }

    #[test]
    fn gnp_connected_is_connected() {
        for seed in 0..5 {
            // Below the connectivity threshold on purpose.
            let g = gnp_connected(200, 0.005, &mut rng(seed)).unwrap();
            assert!(is_connected(&g));
            assert_eq!(g.num_nodes(), 200);
        }
    }

    #[test]
    fn regular_graphs_are_regular_and_connected() {
        for seed in 0..5 {
            let g = random_regular(100, 4, &mut rng(seed)).unwrap();
            assert!(is_regular(&g, 4), "seed {seed}");
            assert!(is_connected(&g), "seed {seed}");
        }
        let g = random_regular(50, 6, &mut rng(1)).unwrap();
        assert!(is_regular(&g, 6));
    }

    #[test]
    #[should_panic(expected = "even degree")]
    fn regular_odd_degree_panics() {
        let _ = random_regular(10, 3, &mut rng(0));
    }

    #[test]
    fn geometric_connected_and_plausible() {
        let g = random_geometric(300, 0.12, &mut rng(5)).unwrap();
        assert!(is_connected(&g));
        assert_eq!(g.num_nodes(), 300);
        // Expected degree ≈ n·π·r² ≈ 13.5; allow a wide band.
        let avg = g.avg_degree();
        assert!((4.0..30.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn geometric_zero_radius_star_of_bridges() {
        let g = random_geometric(20, 0.0, &mut rng(6)).unwrap();
        // No geometric edges; repair chains the 20 singletons.
        assert!(is_connected(&g));
        assert_eq!(g.num_edges(), 19);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(gnp(0, 0.5, &mut rng(0)).is_err());
        assert!(random_geometric(0, 0.1, &mut rng(0)).is_err());
        assert!(random_regular(0, 2, &mut rng(0)).is_err());
    }
}
