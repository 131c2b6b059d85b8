//! **Theorem 4**: the Õ(n^{1/3}) a-posteriori ball scheme.
//!
//! Every node `u` draws a scale `k` uniformly in `{1, …, ⌈log₂ n⌉}` and
//! then its long-range contact uniformly in the ball `B(u, 2^k)`. In
//! closed form, with `r(v) = min{ k : v ∈ B(u, 2^k) }`:
//!
//! ```text
//! φ_u(v) = (1/⌈log n⌉) · Σ_{k = max(r(v),1)}^{⌈log n⌉}  1 / |B(u, 2^k)|
//! ```
//!
//! This is the paper's scheme that overcomes the √n barrier: greedy
//! routing in `(G, φ)` takes `Õ(n^{1/3})` expected steps on **every**
//! n-node graph (five-phase analysis: enter the set `B` of the `n^{2/3}`
//! closest nodes to the target, leave its boundary, grow the ball scale,
//! shrink it onto the target, walk the rest).

use crate::realization::Realization;
use crate::sampler::{ContactSampler, SamplerStats};
use crate::scheme::{AugmentationScheme, ExplicitScheme};
use crate::workspace::with_bfs;
use nav_graph::ball::rank_of_distance;
use nav_graph::msbfs::{batched_compact_rows_w, LaneWidth, MsBfsW, MsBfsWorkspace};
use nav_graph::{Graph, NodeId, INFINITY};
use nav_par::rng::task_rng;
use rand::{Rng, RngCore};
use std::collections::{HashMap, HashSet};

/// The Theorem-4 ball scheme, bound to a graph size (`K = ⌈log₂ n⌉`).
#[derive(Clone, Copy, Debug)]
pub struct BallScheme {
    /// Number of scales `K`.
    k_max: u32,
}

impl BallScheme {
    /// Creates the scheme for graph `g` (`K = ⌈log₂ n⌉`, min 1).
    pub fn new(g: &Graph) -> Self {
        BallScheme {
            k_max: ceil_log2(g.num_nodes()).max(1),
        }
    }

    /// The number of scales `K`.
    pub fn scales(&self) -> u32 {
        self.k_max
    }

    /// A node's effective rank at distance `d` from the centre: the
    /// smallest scale in `1..=K` whose ball holds it, or 0 when it is
    /// outside even the largest ball. The saturated top radius (K ≥ 31)
    /// absorbs every reachable node.
    fn rank_in(&self, d: u32) -> usize {
        if d == INFINITY || d > Self::radius(self.k_max) {
            0
        } else {
            (rank_of_distance(d).max(1) as usize).min(self.k_max as usize)
        }
    }

    /// The ball radius of scale `k` (`2^k`, saturating).
    fn radius(k: u32) -> u32 {
        if k >= 31 {
            u32::MAX
        } else {
            1u32 << k
        }
    }

    /// Realizes one long-range draw for **every** node, batched: centres
    /// are packed [`LANES`](nav_graph::msbfs::LANES) (= 64) per
    /// bit-parallel MS-BFS pass of compact distance rows
    /// ([`batched_compact_rows_w`]) and the passes fanned out to
    /// `threads` `nav-par` workers — replacing the
    /// one scalar truncated BFS per node that [`Realization::sample`]
    /// would issue through [`AugmentationScheme::sample_contact`].
    ///
    /// Node `u`'s draw is a pure function of `(seed, u)` (via
    /// [`task_rng`]), so the result is identical for every thread count
    /// and batch split. Each draw has exactly the scheme's distribution —
    /// a uniform scale `k`, then a uniform element of `B(u, 2^k)` selected
    /// by index against the batch's distance rows — but the realization is
    /// *not* stream-compatible with the sequential single-RNG
    /// [`Realization::sample`], which consumes one shared stream in node
    /// order.
    pub fn realize_batched(&self, g: &Graph, seed: u64, threads: usize) -> Realization {
        self.realize_batched_w(g, seed, threads, LaneWidth::W64)
    }

    /// [`realize_batched`] at an explicit MS-BFS word-block width:
    /// `width.lanes()` centres per pass instead of 64. Draws select ball
    /// members **by index** against exact distance rows with a per-node
    /// RNG, so the realization is bit-identical at every width (and to
    /// [`realize_batched`]) — the width only changes how many rows one
    /// pass amortises.
    ///
    /// [`realize_batched`]: BallScheme::realize_batched
    pub fn realize_batched_w(
        &self,
        g: &Graph,
        seed: u64,
        threads: usize,
        width: LaneWidth,
    ) -> Realization {
        let centres: Vec<NodeId> = g.nodes().collect();
        let batches: Vec<&[NodeId]> = centres.chunks(width.lanes()).collect();
        let per_batch: Vec<Vec<Option<NodeId>>> =
            nav_par::parallel_map(batches.len(), threads, |b| {
                let centres = batches[b];
                batched_compact_rows_w(g, centres, 1, width)
                    .iter()
                    .zip(centres)
                    .map(|(row, &u)| {
                        let row = row.view();
                        let mut rng = task_rng(seed, u as u64);
                        let k = rng.gen_range(1..=self.k_max);
                        let radius = Self::radius(k);
                        // Uniform over B(u, 2^k) by index: count the
                        // members (u itself is always one, d = 0), draw a
                        // rank, take the rank-th member in ascending
                        // node-id order.
                        let in_ball = |d: u32| d != INFINITY && d <= radius;
                        let count = row.iter().filter(|&d| in_ball(d)).count() as u64;
                        let pick = rng.gen_range(0..count);
                        let chosen = row
                            .iter()
                            .enumerate()
                            .filter(|&(_, d)| in_ball(d))
                            .nth(pick as usize)
                            .map(|(v, _)| v as NodeId)
                            .expect("ball contains at least the centre");
                        Some(chosen)
                    })
                    .collect()
            });
        Realization::from_contacts(per_batch.into_iter().flatten().collect())
    }
}

/// `⌈log₂ n⌉` (0 for n = 1).
fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

impl AugmentationScheme for BallScheme {
    fn name(&self) -> String {
        "ball(thm4)".into()
    }

    fn batched_sampler(
        &self,
        g: &Graph,
        byte_cap: usize,
        width: LaneWidth,
    ) -> Option<Box<dyn ContactSampler + '_>> {
        let _ = g;
        Some(Box::new(BallRowSampler::with_width(*self, byte_cap, width)))
    }

    fn sample_contact(&self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let k = rng.gen_range(1..=self.k_max);
        let radius = Self::radius(k);
        // Uniform element of B(u, 2^k) via reservoir sampling over a
        // truncated BFS — O(|B|) time, no ball materialisation. Stops as
        // soon as the whole graph is covered (dense cores at large radii).
        let n = g.num_nodes() as u64;
        with_bfs(g.num_nodes(), |bfs| {
            let mut chosen = u;
            let mut seen = 0u64;
            bfs.run(g, u, radius, |v, _| {
                seen += 1;
                // Reservoir: keep v with probability 1/seen.
                if rng.gen_range(0..seen) == 0 {
                    chosen = v;
                }
                seen < n
            });
            Some(chosen)
        })
    }
}

impl ExplicitScheme for BallScheme {
    fn contact_distribution(&self, g: &Graph, u: NodeId) -> Vec<(NodeId, f64)> {
        // One BFS collects distances; dyadic prefix sums give |B(u, 2^k)|.
        let n = g.num_nodes();
        let kk = self.k_max as usize;
        let mut dist_of: Vec<(NodeId, u32)> = Vec::new();
        with_bfs(n, |bfs| {
            let radius = if self.k_max >= 31 {
                u32::MAX
            } else {
                1u32 << self.k_max
            };
            bfs.run(g, u, radius, |v, d| {
                dist_of.push((v, d));
                true
            });
        });
        // |B(u, 2^k)| for k = 1..=K.
        let mut ball_sizes = vec![0usize; kk + 1];
        for &(_, d) in &dist_of {
            let r = rank_of_distance(d).max(1) as usize;
            if r <= kk {
                ball_sizes[r] += 1;
            }
        }
        for k in 1..=kk {
            ball_sizes[k] += if k > 1 { ball_sizes[k - 1] } else { 0 };
        }
        // suffix[r] = Σ_{k=r}^{K} 1/|B_k|.
        let mut suffix = vec![0.0f64; kk + 2];
        for k in (1..=kk).rev() {
            suffix[k] = suffix[k + 1]
                + if ball_sizes[k] > 0 {
                    1.0 / ball_sizes[k] as f64
                } else {
                    0.0
                };
        }
        let inv_scales = 1.0 / self.k_max as f64;
        dist_of
            .into_iter()
            .filter_map(|(v, d)| {
                let r = (rank_of_distance(d).max(1) as usize).min(kk + 1);
                let p = inv_scales * suffix[r];
                (p > 0.0).then_some((v, p))
            })
            .collect()
    }
}

/// One node's ball index: every node of the largest ball `B(u, 2^K)`,
/// sorted by (dyadic rank, node id), plus the dyadic prefix sizes
/// `|B(u, 2^k)|` — so "a uniform member of `B(u, 2^k)`" is one
/// `gen_range` over a prefix of `members`, `O(1)` per draw.
///
/// `B(u, 2^k) = { v : rank(v) ≤ k }` and ranks are bucketed in ascending
/// order, so each ball is exactly a prefix of the rank-major layout. The
/// layout is canonical: a row is a pure function of `(graph, centre)`,
/// whichever pass, lane width or neighbouring centres computed it, so
/// building, dropping and rebuilding rows can never change a draw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BallRow {
    /// Reachable nodes with `d ≤ 2^K`, rank-major, ascending id within a
    /// rank.
    members: Members,
    /// `ball_sizes[k] = |B(u, 2^k)|` for `k = 1..=K` (`[0]` unused).
    ball_sizes: Vec<u32>,
}

/// A row's member ids, stored in 16 bits whenever every id of the graph
/// fits — half the bytes of a row on graphs up to 65,536 nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Members {
    Narrow(Vec<u16>),
    Wide(Vec<NodeId>),
}

/// Whether a graph of `n` nodes stores ball-row members in 16 bits.
fn narrow_ids(n: usize) -> bool {
    n <= 1 << 16
}

/// Scatters the ids of `n` nodes into their rank buckets (ascending
/// within each), then drops the trailing outsiders' bucket.
fn place<T: Copy + Default>(
    ranks: impl Iterator<Item = usize>,
    mut cursors: Vec<usize>,
    n: usize,
    total: usize,
    id: impl Fn(usize) -> T,
) -> Vec<T> {
    let mut out = vec![T::default(); n];
    for (v, r) in ranks.enumerate() {
        out[cursors[r]] = id(v);
        cursors[r] += 1;
    }
    out.truncate(total);
    out
}

impl BallRow {
    /// Builds the index from a full distance row of the centre
    /// (`row[v] = dist(u, v)`, [`INFINITY`] when unreachable).
    pub fn from_distances(scheme: BallScheme, row: &[u32]) -> Self {
        Self::from_ranks(scheme, row.len(), row.iter().map(|&d| scheme.rank_in(d)))
    }

    /// Builds the index from every node's [`BallScheme::rank_in`], in
    /// node order.
    fn from_ranks(
        scheme: BallScheme,
        n: usize,
        ranks: impl Iterator<Item = usize> + Clone,
    ) -> Self {
        let kk = scheme.k_max as usize;
        let mut counts = vec![0usize; kk + 1];
        for r in ranks.clone() {
            counts[r] += 1;
        }
        // Prefix the counts into ball sizes and bucket cursors. The
        // outsiders' bucket (rank 0) goes last, so placement needs no
        // branch; it is cut off afterwards.
        let mut ball_sizes = vec![0u32; kk + 1];
        let mut cursors = vec![0usize; kk + 1];
        let mut total = 0usize;
        for k in 1..=kk {
            cursors[k] = total;
            total += counts[k];
            ball_sizes[k] = total as u32;
        }
        cursors[0] = total;
        let members = if narrow_ids(n) {
            Members::Narrow(place(ranks, cursors, n, total, |v| v as u16))
        } else {
            Members::Wide(place(ranks, cursors, n, total, |v| v as NodeId))
        };
        BallRow {
            members,
            ball_sizes,
        }
    }

    /// The `i`-th member in (rank, id) order.
    fn member(&self, i: usize) -> NodeId {
        match &self.members {
            Members::Narrow(m) => m[i] as NodeId,
            Members::Wide(m) => m[i],
        }
    }

    /// `|B(u, 2^k)|` for `k = 1..=K`.
    pub fn ball_size(&self, k: u32) -> usize {
        self.ball_sizes[k as usize] as usize
    }

    /// The members of `B(u, 2^k)`: the rank-major prefix of the layout.
    pub fn ball_members(&self, k: u32) -> Vec<NodeId> {
        (0..self.ball_size(k)).map(|i| self.member(i)).collect()
    }

    /// One scheme draw from the index: uniform scale, then a uniform
    /// member of that ball — the same distribution as
    /// [`BallScheme::sample_contact`], in two `gen_range` calls.
    fn sample(&self, scheme: &BallScheme, rng: &mut dyn RngCore) -> Option<NodeId> {
        let k = rng.gen_range(1..=scheme.k_max) as usize;
        let count = self.ball_sizes[k] as u64;
        debug_assert!(count >= 1, "a ball always contains its centre");
        let pick = rng.gen_range(0..count);
        Some(self.member(pick as usize))
    }

    /// Payload bytes of the index (members + prefix table).
    pub fn bytes(&self) -> usize {
        let members = match &self.members {
            Members::Narrow(m) => m.len() * 2,
            Members::Wide(m) => m.len() * 4,
        };
        members + self.ball_sizes.len() * 4
    }
}

/// Backend (b) of the sampler abstraction: ball rows computed in shared
/// bit-parallel MS-BFS passes. The trial engine runs its pairs' trials in
/// lockstep rounds ([`ContactSampler::wants_lockstep`]) and hands every
/// round's walk positions to [`ContactSampler::prepare`], which cuts them
/// into consecutive *segments*: each segment's distinct centres fit one
/// pass — at most `width.lanes()` rows and at most `byte_cap` bytes of
/// worst-case (`n`-member) rows, but always at least one. The sampler
/// builds the segment's missing [`BallRow`]s in one pass and keeps
/// exactly the segment's rows resident; every draw in the segment is then
/// two `gen_range` calls. Same per-node distribution as the scalar
/// [`BallScheme::sample_contact`], radically different cost model:
/// `O(ball-BFS)` per *visit* becomes one shared pass per segment.
///
/// Rows are canonical ([`BallRow`]), so segment boundaries, the byte
/// budget and the lane width decide only how many passes are paid — never
/// a draw. A tight budget makes segments smaller; it never skips a row.
pub struct BallRowSampler {
    scheme: BallScheme,
    /// The rows of the last prepared segment, plus any built by draws
    /// made outside one.
    rows: HashMap<NodeId, BallRow>,
    byte_cap: usize,
    width: LaneWidth,
    /// Byte distance staging of one pass (`centres × n` cells), reused
    /// across passes.
    staging: Vec<u8>,
    /// [`BallScheme::rank_in`] of every staged byte (`u8::MAX` =
    /// unreached).
    depth_rank: [u8; 256],
    stats: SamplerStats,
}

impl BallRowSampler {
    /// A sampler for `scheme` whose resident rows stay within `byte_cap`
    /// bytes (`usize::MAX` = unbounded; at least one row is always
    /// built), filling up to 64 rows per pass.
    pub fn new(scheme: BallScheme, byte_cap: usize) -> Self {
        Self::with_width(scheme, byte_cap, LaneWidth::W64)
    }

    /// [`new`], filling up to `width.lanes()` rows per MS-BFS pass. Rows
    /// are identical at every width.
    ///
    /// [`new`]: BallRowSampler::new
    pub fn with_width(scheme: BallScheme, byte_cap: usize, width: LaneWidth) -> Self {
        BallRowSampler {
            scheme,
            rows: HashMap::new(),
            byte_cap,
            width,
            staging: Vec::new(),
            depth_rank: std::array::from_fn(|d| match d {
                255 => 0,
                d => scheme.rank_in(d as u32) as u8,
            }),
            stats: SamplerStats::default(),
        }
    }

    /// The resident row of `u`, if any.
    pub fn row(&self, u: NodeId) -> Option<&BallRow> {
        self.rows.get(&u)
    }

    /// How many rows one segment may hold: one pass's lanes, fewer when
    /// worst-case rows (`n` members plus the `K + 1` prefix entries)
    /// would overrun the byte budget, never fewer than one.
    fn segment_rows(&self, g: &Graph) -> usize {
        let n = g.num_nodes();
        let id_bytes = if narrow_ids(n) { 2 } else { 4 };
        let per_row = n * id_bytes + (self.scheme.k_max as usize + 1) * 4;
        (self.byte_cap / per_row).clamp(1, self.width.lanes())
    }

    /// Builds and keeps the rows of up to `width.lanes()` centres in one
    /// MS-BFS pass.
    fn fill(&mut self, g: &Graph, centres: &[NodeId]) {
        match self.width {
            LaneWidth::W64 => self.fill_w::<1>(g, centres),
            LaneWidth::W128 => self.fill_w::<2>(g, centres),
            LaneWidth::W256 => self.fill_w::<4>(g, centres),
        }
    }

    fn fill_w<const W: usize>(&mut self, g: &Graph, centres: &[NodeId])
    where
        MsBfsW<W>: MsBfsWorkspace,
    {
        let n = g.num_nodes();
        self.staging.resize(centres.len() * n, 0);
        let staging = &mut self.staging;
        let fits = MsBfsW::<W>::with_ws(n, |ms| ms.distances_into_bytes(g, centres, staging));
        let rows: Vec<BallRow> = if fits {
            self.staging
                .chunks(n)
                .map(|row| {
                    let ranks = row.iter().map(|&d| self.depth_rank[d as usize] as usize);
                    BallRow::from_ranks(self.scheme, n, ranks)
                })
                .collect()
        } else {
            // A finite distance reached u8::MAX: take compact rows.
            batched_compact_rows_w(g, centres, 1, self.width)
                .iter()
                .map(|row| {
                    let row = row.view();
                    let ranks = (0..n).map(|v| self.scheme.rank_in(row.get(v)));
                    BallRow::from_ranks(self.scheme, n, ranks)
                })
                .collect()
        };
        for (&c, row) in centres.iter().zip(rows) {
            self.stats.rows += 1;
            self.stats.row_bytes += row.bytes() as u64;
            self.rows.insert(c, row);
        }
        self.stats.passes += 1;
    }
}

impl ContactSampler for BallRowSampler {
    fn name(&self) -> String {
        "ball(thm4)+rows".into()
    }

    fn sample(&mut self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        if !self.rows.contains_key(&u) {
            // A draw outside any prepared segment: a one-row pass, after
            // making room within the segment bound.
            self.stats.misses += 1;
            if self.rows.len() >= self.segment_rows(g) {
                self.rows.clear();
            }
            self.fill(g, &[u]);
        } else {
            self.stats.hits += 1;
        }
        self.rows[&u].sample(&self.scheme, rng)
    }

    fn prepare(&mut self, g: &Graph, nodes: &[NodeId]) -> usize {
        let limit = self.segment_rows(g);
        let mut segment: Vec<NodeId> = Vec::new();
        let mut in_segment: HashSet<NodeId> = HashSet::new();
        let mut len = 0;
        for &u in nodes {
            if !in_segment.contains(&u) {
                if segment.len() == limit {
                    break;
                }
                in_segment.insert(u);
                segment.push(u);
            }
            len += 1;
        }
        self.rows.retain(|u, _| in_segment.contains(u));
        segment.retain(|u| !self.rows.contains_key(u));
        if !segment.is_empty() {
            self.fill(g, &segment);
        }
        len
    }

    fn wants_lockstep(&self) -> bool {
        true
    }

    fn stats(&self) -> SamplerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{check_scheme, ConformanceConfig};

    use nav_graph::GraphBuilder;
    use nav_par::rng::seeded_rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn ceil_log2_table() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn distribution_sums_to_one() {
        // Balls always contain u, so the scheme is fully stochastic.
        for n in [2usize, 5, 16, 33] {
            let g = path(n);
            let scheme = BallScheme::new(&g);
            for u in [0u32, (n / 2) as u32, (n - 1) as u32] {
                let total: f64 = scheme
                    .contact_distribution(&g, u)
                    .iter()
                    .map(|&(_, p)| p)
                    .sum();
                assert!((total - 1.0).abs() < 1e-9, "n={n} u={u}: {total}");
            }
        }
    }

    #[test]
    fn sampler_matches_distribution_on_path() {
        let g = path(17);
        let scheme = BallScheme::new(&g);
        check_scheme(
            &g,
            &scheme,
            &[0, 8, 16],
            &ConformanceConfig::with_samples(120_000),
        );
    }

    #[test]
    fn sampler_matches_distribution_on_star() {
        let g = GraphBuilder::from_edges(9, (1..9).map(|v| (0, v as NodeId))).unwrap();
        let scheme = BallScheme::new(&g);
        check_scheme(
            &g,
            &scheme,
            &[0, 3],
            &ConformanceConfig::with_samples(60_000),
        );
    }

    #[test]
    fn closer_nodes_never_less_likely() {
        // φ_u is non-increasing in distance (suffix sums of shrinking
        // terms) — the small-world monotonicity.
        let g = path(65);
        let scheme = BallScheme::new(&g);
        let dist = scheme.contact_distribution(&g, 0);
        let mut by_node = vec![0.0f64; 65];
        for (v, p) in dist {
            by_node[v as usize] = p;
        }
        for v in 1..64usize {
            assert!(
                by_node[v] >= by_node[v + 1] - 1e-12,
                "monotonicity broke at {v}: {} < {}",
                by_node[v],
                by_node[v + 1]
            );
        }
    }

    #[test]
    fn paper_formula_spot_check() {
        // Path of 8, u = 0, K = 3. Balls: |B(0,2)| = 3, |B(0,4)| = 5,
        // |B(0,8)| = 8. Node at distance 1 (rank ≤ 1): p = (1/3)(1/3+1/5+1/8).
        let g = path(8);
        let scheme = BallScheme::new(&g);
        assert_eq!(scheme.scales(), 3);
        let dist = scheme.contact_distribution(&g, 0);
        let p1 = dist.iter().find(|&&(v, _)| v == 1).unwrap().1;
        let expect = (1.0 / 3.0) * (1.0 / 3.0 + 1.0 / 5.0 + 1.0 / 8.0);
        assert!((p1 - expect).abs() < 1e-12, "{p1} vs {expect}");
        // Node at distance 3 (rank 2): p = (1/3)(1/5 + 1/8).
        let p3 = dist.iter().find(|&&(v, _)| v == 3).unwrap().1;
        let expect3 = (1.0 / 3.0) * (1.0 / 5.0 + 1.0 / 8.0);
        assert!((p3 - expect3).abs() < 1e-12);
        // Node at distance 8 is outside every ball? dist 7, rank 3:
        // p = (1/3)(1/8).
        let p7 = dist.iter().find(|&&(v, _)| v == 7).unwrap().1;
        assert!((p7 - (1.0 / 3.0) * (1.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn batched_realization_is_thread_invariant_and_deterministic() {
        let g = path(150); // spans three 64-lane batches
        let scheme = BallScheme::new(&g);
        let r1 = scheme.realize_batched(&g, 9, 1);
        let r4 = scheme.realize_batched(&g, 9, 4);
        assert_eq!(r1, r4, "thread count must not change the realization");
        assert_ne!(r1, scheme.realize_batched(&g, 10, 1));
        assert_eq!(r1.num_links(), 150); // the scheme is fully stochastic
    }

    #[test]
    fn batched_realization_matches_distribution() {
        // Empirical contact frequencies of node u across many batched
        // realizations must match the closed-form φ_u.
        let g = path(17);
        let scheme = BallScheme::new(&g);
        let u = 8u32;
        let samples = 60_000usize;
        let mut counts = [0usize; 17];
        for s in 0..samples {
            let real = scheme.realize_batched(&g, s as u64, 1);
            counts[real.contact(u).unwrap() as usize] += 1;
        }
        let exact = scheme.contact_distribution(&g, u);
        let mut expected = [0.0f64; 17];
        for (v, p) in exact {
            expected[v as usize] = p;
        }
        for v in 0..17 {
            let emp = counts[v] as f64 / samples as f64;
            assert!(
                (emp - expected[v]).abs() < 0.012,
                "node {u}→{v}: empirical {emp:.4} vs exact {:.4}",
                expected[v]
            );
        }
    }

    #[test]
    fn batched_realization_stays_inside_largest_ball() {
        let g = path(40);
        let scheme = BallScheme::new(&g);
        let real = scheme.realize_batched(&g, 3, 2);
        let max_radius = 1u64 << scheme.scales();
        for u in 0..40u32 {
            let v = real.contact(u).unwrap();
            let d = (v as i64 - u as i64).unsigned_abs();
            assert!(d <= max_radius, "u={u} v={v}");
        }
    }

    #[test]
    fn tiny_graph_sampling() {
        let g = path(2);
        let scheme = BallScheme::new(&g);
        let mut rng = seeded_rng(33);
        for u in 0..2u32 {
            let v = scheme.sample_contact(&g, u, &mut rng).unwrap();
            assert!(v < 2);
        }
    }

    #[test]
    fn ball_row_prefixes_are_exactly_the_dyadic_balls() {
        let g = path(23);
        let scheme = BallScheme::new(&g);
        let u = 7u32;
        let dist = with_bfs(23, |bfs| bfs.distances(&g, u));
        let row = BallRow::from_distances(scheme, &dist);
        for k in 1..=scheme.scales() {
            let radius = if k >= 31 { u32::MAX } else { 1u32 << k };
            let mut expect: Vec<NodeId> = (0..23u32)
                .filter(|&v| dist[v as usize] != INFINITY && dist[v as usize] <= radius)
                .collect();
            let mut got = row.ball_members(k);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "k={k}");
            assert_eq!(row.ball_size(k), expect.len());
        }
        // 16-bit member ids plus the u32 prefix table.
        assert_eq!(row.bytes(), 23 * 2 + (scheme.scales() as usize + 1) * 4);
    }

    #[test]
    fn ball_row_drops_unreachable_nodes() {
        let dist = [0u32, 1, INFINITY, 3];
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let scheme = BallScheme::new(&g); // K = 2
        let row = BallRow::from_distances(scheme, &dist);
        assert_eq!(row.ball_members(scheme.scales()), [0, 1, 3]);
    }

    #[test]
    fn row_sampler_matches_scalar_distribution() {
        // The cached draw and the scalar reservoir draw must agree with
        // the closed-form φ_u — same empirical gate as the scalar test.
        let g = path(17);
        let scheme = BallScheme::new(&g);
        let exact = scheme.contact_distribution(&g, 8);
        let mut expected = [0.0f64; 17];
        for (v, p) in exact {
            expected[v as usize] = p;
        }
        let mut sampler = BallRowSampler::new(scheme, usize::MAX);
        let mut rng = seeded_rng(77);
        let samples = 120_000usize;
        let mut counts = [0usize; 17];
        for _ in 0..samples {
            counts[sampler.sample(&g, 8, &mut rng).unwrap() as usize] += 1;
        }
        for v in 0..17 {
            let emp = counts[v] as f64 / samples as f64;
            assert!(
                (emp - expected[v]).abs() < 0.012,
                "8→{v}: empirical {emp:.4} vs exact {:.4}",
                expected[v]
            );
        }
        let stats = sampler.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, samples - 1);
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.rows, 1); // demand-driven: only the missed node
        assert_eq!(stats.fallbacks, 0);
        assert!(sampler.row(8).is_some());
        assert!(stats.row_bytes > 0);
    }

    #[test]
    fn prepare_batches_all_announced_misses_into_one_pass() {
        let g = path(150);
        let scheme = BallScheme::new(&g);
        let mut sampler = BallRowSampler::new(scheme, usize::MAX);
        // 20 distinct walks announce their nodes (with repeats): one
        // MS-BFS pass computes exactly the distinct rows and readies the
        // whole list.
        let nodes: Vec<NodeId> = (0..40).map(|i| (i % 20) * 7).collect();
        assert_eq!(sampler.prepare(&g, &nodes), 40);
        assert_eq!(sampler.stats().rows, 20);
        assert_eq!(sampler.stats().passes, 1);
        // Every announced node now samples as a hit.
        let mut rng = seeded_rng(5);
        for &u in &nodes {
            assert!(sampler.sample(&g, u, &mut rng).unwrap() < 150);
        }
        assert_eq!(sampler.stats().misses, 0);
        // More than 64 distinct nodes: each prepare readies the prefix
        // whose distinct nodes fit one pass, keeps only that segment's
        // rows, and builds just the ones not resident yet.
        let many: Vec<NodeId> = (0..150).collect();
        assert_eq!(sampler.prepare(&g, &many), 64);
        // 0, 7, …, 63 were resident: 54 new rows in one pass.
        assert_eq!(sampler.stats().rows, 20 + 54);
        assert_eq!(sampler.stats().passes, 2);
        assert!(sampler.row(70).is_none(), "rows outside the segment go");
        assert_eq!(sampler.prepare(&g, &many[64..]), 64);
        assert_eq!(sampler.prepare(&g, &many[128..]), 22);
        assert_eq!(sampler.stats().passes, 4);
        assert!(sampler.wants_lockstep());
    }

    /// A small graph whose BFS levels interleave node ids, so discovery
    /// order within a rank differs from id order.
    fn tangled(n: usize) -> Graph {
        let edges = (0..n as NodeId).flat_map(|u| {
            let n = n as NodeId;
            [(u, (u + 1) % n), (u, (u * 7 + 3) % n)]
        });
        GraphBuilder::from_edges(n, edges.filter(|&(u, v)| u != v)).unwrap()
    }

    /// Prepares `order` segment by segment at every lane width and checks
    /// each resident row equals [`BallRow::from_distances`] exactly.
    fn assert_rows_canonical(g: &Graph, order: &[NodeId]) {
        let scheme = BallScheme::new(g);
        let n = g.num_nodes();
        for width in LaneWidth::ALL {
            let mut sampler = BallRowSampler::with_width(scheme, usize::MAX, width);
            let mut at = 0;
            while at < order.len() {
                let len = sampler.prepare(g, &order[at..]);
                for &u in &order[at..at + len] {
                    let dist = with_bfs(n, |bfs| bfs.distances(g, u));
                    let reference = BallRow::from_distances(scheme, &dist);
                    assert_eq!(sampler.row(u), Some(&reference), "{width} u={u}");
                }
                at += len;
            }
        }
    }

    #[test]
    fn batched_rows_agree_with_scalar_row_construction() {
        // Rows are canonical — (rank, id) order — whatever width builds
        // them and whichever centres share the pass: each centre alone,
        // then packed beside unrelated centres, then in reverse packing.
        let g = tangled(97);
        for u in [0, 13, 50, 96] {
            assert_rows_canonical(&g, &[u]);
        }
        let all: Vec<NodeId> = (0..97).collect();
        assert_rows_canonical(&g, &all);
        let reversed: Vec<NodeId> = all.iter().rev().copied().collect();
        assert_rows_canonical(&g, &reversed);
        assert_rows_canonical(&path(37), &(0..37).collect::<Vec<_>>());
        // Distances past the byte staging's range take the wide fill.
        assert_rows_canonical(&path(300), &[0, 299, 150, 7]);
    }

    #[test]
    fn batched_realization_is_width_invariant() {
        // Draws are by index over exact rows with a per-node RNG, so the
        // realization must be bit-identical at every word-block width.
        let g = path(300); // > 256: every width still needs multiple passes
        let scheme = BallScheme::new(&g);
        let base = scheme.realize_batched(&g, 11, 2);
        for width in LaneWidth::ALL {
            assert_eq!(
                scheme.realize_batched_w(&g, 11, 2, width),
                base,
                "width {width}"
            );
        }
    }

    #[test]
    fn wide_sampler_rows_hold_the_same_rank_buckets() {
        // Rows filled at 128/256 lanes are exactly the rows the scalar
        // construction builds, and one pass carries `width.lanes()` rows.
        let g = path(150);
        let scheme = BallScheme::new(&g);
        let all: Vec<NodeId> = (0..150).collect();
        for width in [LaneWidth::W128, LaneWidth::W256] {
            let mut sampler = BallRowSampler::with_width(scheme, usize::MAX, width);
            let mut at = 0;
            while at < all.len() {
                let len = sampler.prepare(&g, &all[at..]);
                assert_eq!(len, width.lanes().min(all.len() - at), "{width}");
                for &u in &all[at..at + len] {
                    let dist = with_bfs(150, |bfs| bfs.distances(&g, u));
                    let reference = BallRow::from_distances(scheme, &dist);
                    assert_eq!(sampler.row(u), Some(&reference), "{width} u={u}");
                }
                at += len;
            }
            assert_eq!(sampler.stats().rows, 150, "{width}");
            assert_eq!(
                sampler.stats().passes as usize,
                150usize.div_ceil(width.lanes()),
                "{width}"
            );
        }
    }

    #[test]
    fn wide_row_sampler_passes_conformance_at_every_width() {
        // The per-draw distribution is width-invariant: the chi-squared
        // gate that pins the 64-lane cache also pins the wide ones.
        let g = path(17);
        let scheme = BallScheme::new(&g);
        let cfg = ConformanceConfig::with_samples(60_000);
        for width in LaneWidth::ALL {
            let mut sampler = BallRowSampler::with_width(scheme, usize::MAX, width);
            crate::conformance::check_sampler(&g, &scheme, &mut sampler, &[0, 8, 16], &cfg);
        }
    }

    #[test]
    fn zero_byte_budget_draws_like_an_unbounded_one() {
        // A 0-byte budget shrinks segments to one row each — it never
        // skips a row, so every draw matches the unbounded sampler's.
        let g = path(30);
        let scheme = BallScheme::new(&g);
        let mut tight = BallRowSampler::new(scheme, 0);
        let mut free = BallRowSampler::new(scheme, usize::MAX);
        let (mut a, mut b) = (seeded_rng(6), seeded_rng(6));
        for i in 0..200u32 {
            let u = (i * 7) % 30;
            assert_eq!(tight.sample(&g, u, &mut a), free.sample(&g, u, &mut b));
        }
        let nodes: Vec<NodeId> = (0..30).collect();
        assert_eq!(tight.prepare(&g, &nodes), 1);
        assert_eq!(free.prepare(&g, &nodes), 30);
        for &u in &nodes[..1] {
            assert_eq!(tight.sample(&g, u, &mut a), free.sample(&g, u, &mut b));
        }
        let stats = tight.stats();
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.rows, stats.passes, "one row per pass");
        assert!(stats.row_bytes > 0);
    }

    #[test]
    fn scheme_hands_out_its_batched_sampler() {
        let g = path(9);
        let scheme = BallScheme::new(&g);
        let mut s = scheme
            .batched_sampler(&g, usize::MAX, LaneWidth::W64)
            .expect("ball has one");
        assert_eq!(s.name(), "ball(thm4)+rows");
        let mut rng = seeded_rng(8);
        assert!(s.sample(&g, 4, &mut rng).unwrap() < 9);
        assert_eq!(s.stats().misses, 1);
    }
}
