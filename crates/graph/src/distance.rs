//! Exact distances, eccentricities and diameters.
//!
//! Greedy routing is defined against the *exact* metric of the underlying
//! graph, so the reproduction needs cheap access to `dist_G(·, t)` (one BFS
//! per target, cached by the routing engine) and, for analysis and small-n
//! exact computations, full all-pairs matrices.
//!
//! All-pairs work here is batched: sources are packed into bit-parallel
//! [`MsBfsW`](crate::msbfs::MsBfsW) passes and the batches run on
//! `nav-par` workers, so [`DistanceMatrix::new`], [`eccentricities`] and
//! [`diameter_exact`] scale with cores instead of running `n` sequential
//! scalar sweeps. The matrix is the routing engine's cold fill
//! ([`batched_compact_rows_w`]) run over every source: one compact row
//! per node.

use crate::msbfs::{batched_compact_rows_w, LaneWidth, MsBfs, MsBfsWorkspace, LANES};
use crate::{bfs::Bfs, csr::Graph, NodeId, INFINITY};

/// The value encoding [`INFINITY`] inside narrow (`u16`) distance storage.
pub const NARROW_INFINITY: u16 = u16::MAX;

/// Owned distance values at adaptive width: `u16` when every finite
/// distance fits (eccentricity `< 65535`), `u32` otherwise. Narrow storage
/// halves the memory footprint — and the memory traffic of every
/// subsequent scan — of resident rows, which is what bounds how many
/// target rows a serving cache can keep warm at large `n`.
///
/// [`INFINITY`] is encoded as [`NARROW_INFINITY`] in narrow storage;
/// [`DistRowBuf::get`] always decodes back to `u32` semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistRowBuf {
    /// 16-bit storage (`NARROW_INFINITY` ⇔ unreachable).
    Narrow(Vec<u16>),
    /// Full-width storage (`INFINITY` as-is).
    Wide(Vec<u32>),
}

impl DistRowBuf {
    /// Compacts a full-width buffer: narrow iff every finite value is
    /// `< NARROW_INFINITY` (so the sentinel never collides with a real
    /// distance), wide otherwise. One fused read pass — the fits check
    /// rides the conversion and aborts to the wide copy at the first
    /// oversized value.
    pub fn from_wide(values: &[u32]) -> Self {
        let narrow: Option<Vec<u16>> = values
            .iter()
            .map(|&d| {
                if d == INFINITY {
                    Some(NARROW_INFINITY)
                } else if d < NARROW_INFINITY as u32 {
                    Some(d as u16)
                } else {
                    None
                }
            })
            .collect();
        match narrow {
            Some(v) => DistRowBuf::Narrow(v),
            None => DistRowBuf::Wide(values.to_vec()),
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        match self {
            DistRowBuf::Narrow(v) => v.len(),
            DistRowBuf::Wide(v) => v.len(),
        }
    }

    /// `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` for 16-bit storage.
    pub fn is_narrow(&self) -> bool {
        matches!(self, DistRowBuf::Narrow(_))
    }

    /// Payload size in bytes (what a byte-bounded cache should charge).
    pub fn bytes(&self) -> usize {
        match self {
            DistRowBuf::Narrow(v) => v.len() * std::mem::size_of::<u16>(),
            DistRowBuf::Wide(v) => v.len() * std::mem::size_of::<u32>(),
        }
    }

    /// The value at `i`, decoded to `u32` semantics ([`INFINITY`] for
    /// unreachable).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.view().get(i)
    }

    /// A borrowed view of the whole buffer.
    #[inline]
    pub fn view(&self) -> DistRowView<'_> {
        match self {
            DistRowBuf::Narrow(v) => DistRowView::Narrow(v),
            DistRowBuf::Wide(v) => DistRowView::Wide(v),
        }
    }
}

/// A borrowed distance row at either width; the reading side of
/// [`DistRowBuf`]. Copyable, so routers and caches can hand it around
/// freely without touching the owning storage.
#[derive(Clone, Copy, Debug)]
pub enum DistRowView<'a> {
    /// Borrowed 16-bit values ([`NARROW_INFINITY`] ⇔ unreachable).
    Narrow(&'a [u16]),
    /// Borrowed full-width values.
    Wide(&'a [u32]),
}

impl<'a> DistRowView<'a> {
    /// Number of values in view.
    pub fn len(&self) -> usize {
        match self {
            DistRowView::Narrow(v) => v.len(),
            DistRowView::Wide(v) => v.len(),
        }
    }

    /// `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `i`, decoded to `u32` semantics.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            DistRowView::Narrow(v) => {
                let d = v[i];
                if d == NARROW_INFINITY {
                    INFINITY
                } else {
                    d as u32
                }
            }
            DistRowView::Wide(v) => v[i],
        }
    }

    /// Iterates the decoded values in index order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let (narrow, wide) = match *self {
            DistRowView::Narrow(v) => (Some(v), None),
            DistRowView::Wide(v) => (None, Some(v)),
        };
        narrow
            .into_iter()
            .flatten()
            .map(|&d| {
                if d == NARROW_INFINITY {
                    INFINITY
                } else {
                    d as u32
                }
            })
            .chain(wide.into_iter().flatten().copied())
    }

    /// `true` iff the decoded values equal `other` element for element.
    pub fn eq_wide(&self, other: &[u32]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, &b)| a == b)
    }
}

/// The source batches of an all-pairs sweep: `0..n` packed into runs of
/// [`LANES`] consecutive ids.
fn source_batches(n: usize) -> impl Iterator<Item = Vec<NodeId>> {
    (0..n.div_ceil(LANES)).map(move |c| {
        let lo = c * LANES;
        let hi = (lo + LANES).min(n);
        (lo as NodeId..hi as NodeId).collect()
    })
}

/// Dense all-pairs distance matrix (`O(n·m)` time via batched bit-parallel
/// BFS) — intended for analysis and exact evaluation at small `n`.
///
/// One [`DistRowBuf`] per source at adaptive width: `2n` bytes per row
/// when the row's eccentricity fits in 16 bits (i.e. essentially always —
/// only rows with a finite distance ≥ 65535 fall back to `u32`), halving
/// the memory footprint and the traffic of whole-matrix scans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    /// Row `u` holds the distances from `u`.
    rows: Vec<DistRowBuf>,
}

impl DistanceMatrix {
    /// Computes all-pairs shortest-path distances with the default worker
    /// count (batched 64-wide MS-BFS, batches in parallel).
    pub fn new(g: &Graph) -> Self {
        Self::with_threads(g, nav_par::default_threads())
    }

    /// [`DistanceMatrix::new`] with an explicit worker count (`1` =
    /// inline). Distances are exact, so the result is identical for every
    /// thread count.
    pub fn with_threads(g: &Graph, threads: usize) -> Self {
        Self::with_threads_width(g, threads, LaneWidth::W64)
    }

    /// [`DistanceMatrix::with_threads`] at an explicit MS-BFS word-block
    /// width: `width.lanes()` sources per pass. Distances are exact, so
    /// the matrix is **bit-identical at every width and thread count** —
    /// the knob only changes how many sources amortise one traversal (see
    /// `BENCH_core.json`'s `all_pairs_width_sweep`).
    pub fn with_threads_width(g: &Graph, threads: usize, width: LaneWidth) -> Self {
        let sources: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        DistanceMatrix {
            rows: batched_compact_rows_w(g, &sources, threads, width),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Resident payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.rows.iter().map(DistRowBuf::bytes).sum()
    }

    /// `dist(u, v)`; [`INFINITY`] when disconnected.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> u32 {
        self.rows[u as usize].get(v as usize)
    }

    /// Row of distances from `u` (a width-agnostic borrowed view).
    #[inline]
    pub fn row(&self, u: NodeId) -> DistRowView<'_> {
        self.rows[u as usize].view()
    }

    /// Eccentricity of `u` (max finite distance). `None` if some node is
    /// unreachable from `u`.
    pub fn eccentricity(&self, u: NodeId) -> Option<u32> {
        let mut max = 0u32;
        for d in self.row(u).iter() {
            if d == INFINITY {
                return None;
            }
            max = max.max(d);
        }
        Some(max)
    }

    /// Exact diameter; `None` when the graph is disconnected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0u32;
        for u in 0..self.num_nodes() {
            best = best.max(self.eccentricity(u as NodeId)?);
        }
        Some(best)
    }
}

/// Eccentricity of every node without storing the matrix: batched MS-BFS
/// in `O(n·m / 64)`-ish word operations and `O(n)` space per batch.
/// `ecc[u]` is `None` when `u` does not reach the whole graph.
pub fn eccentricities(g: &Graph) -> Vec<Option<u32>> {
    eccentricities_with_threads(g, nav_par::default_threads())
}

/// [`eccentricities`] with an explicit worker count (`1` = inline).
pub fn eccentricities_with_threads(g: &Graph, threads: usize) -> Vec<Option<u32>> {
    let n = g.num_nodes();
    let batches: Vec<Vec<NodeId>> = source_batches(n).collect();
    let per_batch = nav_par::parallel_map(batches.len(), threads, |c| {
        MsBfs::with_ws(n, |ms| ms.eccentricities(g, &batches[c]))
    });
    per_batch
        .into_iter()
        .flatten()
        .map(|(ecc, reached)| (reached == n).then_some(ecc))
        .collect()
}

/// Exact diameter via all eccentricities but without storing the matrix.
/// Returns `None` for disconnected graphs — detected by one cheap scalar
/// BFS up front, so the full batched sweep only runs when it can succeed.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    if g.num_nodes() > 0 && !crate::components::is_connected(g) {
        return None;
    }
    let mut best = 0u32;
    for ecc in eccentricities(g) {
        best = best.max(ecc?);
    }
    Some(best)
}

/// Double-sweep lower bound on the diameter: BFS from `start`, then BFS from
/// the farthest node found. Exact on trees; a good estimate elsewhere.
/// Returns `(s, t, dist(s, t))` for the best pair found.
pub fn double_sweep(g: &Graph, start: NodeId) -> (NodeId, NodeId, u32) {
    let mut bfs = Bfs::new(g.num_nodes());
    let (a, _) = bfs.farthest(g, start);
    let (b, d) = bfs.farthest(g, a);
    (a, b, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    fn cycle(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId).map(|u| (u, (u + 1) % n as NodeId))).unwrap()
    }

    #[test]
    fn matrix_path_distances() {
        let g = path(5);
        let m = DistanceMatrix::new(&g);
        assert_eq!(m.dist(0, 4), 4);
        assert_eq!(m.dist(4, 0), 4);
        assert_eq!(m.dist(2, 2), 0);
        assert!(m.row(0).eq_wide(&[0, 1, 2, 3, 4]));
        assert_eq!(m.row(0).iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn matrix_is_compact_and_halves_bytes() {
        let g = path(10);
        let m = DistanceMatrix::new(&g);
        assert!(m.rows.iter().all(DistRowBuf::is_narrow));
        assert_eq!(m.bytes(), 10 * 10 * 2);
    }

    #[test]
    fn row_buf_narrow_roundtrip_with_infinity() {
        let wide = [0u32, 3, NARROW_INFINITY as u32 - 1, INFINITY];
        let buf = DistRowBuf::from_wide(&wide);
        assert!(buf.is_narrow());
        assert!(!buf.is_empty());
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.bytes(), 8);
        for (i, &d) in wide.iter().enumerate() {
            assert_eq!(buf.get(i), d);
            assert_eq!(buf.view().get(i), d);
        }
        assert!(buf.view().eq_wide(&wide));
        assert!(!buf.view().eq_wide(&wide[..3]));
        assert!(!buf.view().is_empty());
    }

    #[test]
    fn row_buf_wide_fallback_when_distance_too_large() {
        // A finite value equal to the narrow sentinel must force u32.
        let wide = [0u32, NARROW_INFINITY as u32, INFINITY];
        let buf = DistRowBuf::from_wide(&wide);
        assert!(!buf.is_narrow());
        assert_eq!(buf.bytes(), 12);
        assert!(buf.view().eq_wide(&wide));
        assert_eq!(buf.view().iter().collect::<Vec<_>>(), wide);
    }

    #[test]
    fn matrix_symmetry() {
        let g = cycle(9);
        let m = DistanceMatrix::new(&g);
        for u in 0..9u32 {
            for v in 0..9u32 {
                assert_eq!(m.dist(u, v), m.dist(v, u));
            }
        }
    }

    #[test]
    fn eccentricity_and_diameter() {
        let g = path(7);
        let m = DistanceMatrix::new(&g);
        assert_eq!(m.eccentricity(0), Some(6));
        assert_eq!(m.eccentricity(3), Some(3));
        assert_eq!(m.diameter(), Some(6));
        assert_eq!(diameter_exact(&g), Some(6));
    }

    #[test]
    fn cycle_diameter() {
        let g = cycle(10);
        assert_eq!(diameter_exact(&g), Some(5));
        let g = cycle(11);
        assert_eq!(diameter_exact(&g), Some(5));
    }

    #[test]
    fn disconnected_reports_none() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let m = DistanceMatrix::new(&g);
        assert_eq!(m.dist(0, 2), INFINITY);
        assert_eq!(m.eccentricity(0), None);
        assert_eq!(m.diameter(), None);
        assert_eq!(diameter_exact(&g), None);
    }

    #[test]
    fn double_sweep_exact_on_path() {
        let g = path(20);
        let (a, b, d) = double_sweep(&g, 7);
        assert_eq!(d, 19);
        assert!((a == 0 && b == 19) || (a == 19 && b == 0));
    }

    #[test]
    fn double_sweep_lower_bounds_cycle() {
        let g = cycle(12);
        let (_, _, d) = double_sweep(&g, 0);
        assert!(d <= 6);
        assert!(d >= 5); // double sweep on a cycle still finds ~diameter
    }

    #[test]
    fn eccentricities_and_radius() {
        let g = path(7);
        let eccs = eccentricities(&g);
        assert_eq!(eccs[0], Some(6));
        assert_eq!(eccs[3], Some(3));
        let disc = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(eccentricities(&disc).iter().all(|e| e.is_none()));
    }

    #[test]
    fn matrix_identical_across_thread_counts() {
        // Exact distances: every thread count must produce the same bytes.
        let n = 150usize; // spans three 64-lane batches
        let mut b = GraphBuilder::new(n);
        for u in 0..n as NodeId {
            b.add_edge(u, (u + 1) % n as NodeId);
            b.add_edge(u, (u + 11) % n as NodeId);
        }
        let g = b.build().unwrap();
        let m1 = DistanceMatrix::with_threads(&g, 1);
        let m4 = DistanceMatrix::with_threads(&g, 4);
        assert_eq!(m1, m4);
        assert_eq!(
            eccentricities_with_threads(&g, 1),
            eccentricities_with_threads(&g, 4)
        );
    }

    #[test]
    fn matrix_identical_across_lane_widths() {
        // The width is a pure throughput knob: every (width, threads)
        // combination must produce the same bytes.
        let n = 200usize; // a partial batch at every width
        let mut b = GraphBuilder::new(n);
        for u in 0..n as NodeId {
            b.add_edge(u, (u + 1) % n as NodeId);
            b.add_edge(u, (u + 23) % n as NodeId);
        }
        let g = b.build().unwrap();
        let base = DistanceMatrix::with_threads(&g, 2);
        for width in LaneWidth::ALL {
            for threads in [1, 3] {
                let m = DistanceMatrix::with_threads_width(&g, threads, width);
                assert_eq!(m, base, "width {width} threads {threads}");
            }
        }
    }

    #[test]
    fn matrix_matches_diameter_exact_on_random_small() {
        // deterministic "random-ish" graph: circulant with chords
        let n = 24usize;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as NodeId {
            b.add_edge(u, (u + 1) % n as NodeId);
            b.add_edge(u, (u + 5) % n as NodeId);
        }
        let g = b.build().unwrap();
        let m = DistanceMatrix::new(&g);
        assert_eq!(m.diameter(), diameter_exact(&g));
    }
}
