//! Bit-parallel multi-source BFS (MS-BFS), width-generic.
//!
//! Every statistic of the reproduction reduces to BFS distances, and most
//! callers need distances from *many* sources on the *same* graph: the
//! all-pairs [`crate::distance::DistanceMatrix`] runs `n` sweeps, exact
//! diameters run `n` sweeps, and the routing engine needs one distance row
//! per distinct trial target. Running those sweeps one at a time wastes the
//! fact that they all traverse the same CSR structure.
//!
//! [`MsBfsW`] batches up to `64 · W` sources into a single traversal by
//! giving every source one bit lane of a `[u64; W]` word block per node
//! (the MS-BFS technique of Then et al., *The More the Merrier: Efficient
//! Multi-Source Graph Traversal*, VLDB 2015, widened the way fraig engines
//! pack multiple simulation words per gate). One pass over an edge
//! advances **all** sources whose frontiers contain the endpoint — `W`
//! bitwise `OR`/`AND NOT` word ops per neighbour instead of `64 · W`
//! separate queue operations. On low-diameter graphs the frontiers of the
//! batch overlap heavily and the traversal does close to `1/(64·W)`-th of
//! the scalar work; on high-diameter graphs (paths) it degrades gracefully
//! to scalar-equivalent traversal counts with a smaller constant.
//!
//! Three widths are instantiated, selected at runtime via [`LaneWidth`]:
//! `W = 1` (64 lanes, the default and the [`MsBfs`] alias), `W = 2`
//! (128 lanes) and `W = 4` (256 lanes) — portable fixed-size arrays on
//! stable Rust, no `std::simd`. The compiler unrolls the `W`-length loops
//! and autovectorizes the word ops. Distances are **bit-identical across
//! widths** (BFS is exact), so the width is purely a throughput knob for
//! distance fills; see `BENCH_core.json`'s width-sweep sections for the
//! measured crossovers.
//!
//! The workspace keeps an explicit *active list* of nodes with non-empty
//! frontiers, so sparse levels (long thin graphs) cost `O(active)` rather
//! than `O(n)` per level. The Beamer-style bottom-up arm kicks in when the
//! active list covers `n / 8` nodes — measured flat across widths (the
//! bottom-up early exit gets *more* effective at larger `W` because more
//! lanes are missing per node, compensating the wider word ops).
//!
//! Every distance fill writes one row per source — the `u32` and `u8`
//! lane-major buffers of [`MsBfsW::distances_into`] and
//! [`MsBfsW::distances_into_bytes`], and the compact per-source
//! [`DistRowBuf`]s of [`batched_compact_rows_w`], which the routing
//! engine's cold fill and the all-pairs matrix both use. The fills
//! record depths bit-sliced into 8 depth planes and decode them into
//! rows in bulk. The planes hold 255 levels at a time: each 255-level
//! window is decoded as the next one opens, so a graph of any depth is
//! traversed exactly once, and the transient state stays `O(n · W)`.
//! A graph with at least 2¹⁵ nodes can
//! spread one pass over several threads ([`MsBfsW::set_threads`]): each
//! bottom-up level and each window decode splits into contiguous node
//! ranges, and the output is bit-identical at every thread count.

use crate::{csr::Graph, distance::DistRowBuf, NodeId};

/// Number of bit lanes (sources) a single [`MsBfs`] (width-1) pass can
/// carry. A width-`W` [`MsBfsW`] pass carries `LANES · W`.
pub const LANES: usize = 64;

/// Runtime selector for the MS-BFS word-block width: how many `u64`
/// words (and thus `64 ·` words bit lanes) each pass carries.
///
/// The width never changes distance outputs — it only trades per-pass
/// cost against pass count — so every API that takes a `LaneWidth`
/// returns bit-identical results at each variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LaneWidth {
    /// One word, 64 lanes per pass (the historical default).
    #[default]
    W64,
    /// Two words, 128 lanes per pass.
    W128,
    /// Four words, 256 lanes per pass.
    W256,
}

impl LaneWidth {
    /// Every supported width, narrowest first.
    pub const ALL: [LaneWidth; 3] = [LaneWidth::W64, LaneWidth::W128, LaneWidth::W256];

    /// `u64` words per node per pass (`1`, `2` or `4`).
    pub fn words(self) -> usize {
        match self {
            LaneWidth::W64 => 1,
            LaneWidth::W128 => 2,
            LaneWidth::W256 => 4,
        }
    }

    /// Bit lanes (sources) per pass (`64 · words`).
    pub fn lanes(self) -> usize {
        LANES * self.words()
    }

    /// Parses a lane count (`"64"`, `"128"`, `"256"`).
    pub fn parse(s: &str) -> Option<LaneWidth> {
        match s {
            "64" => Some(LaneWidth::W64),
            "128" => Some(LaneWidth::W128),
            "256" => Some(LaneWidth::W256),
            _ => None,
        }
    }

    /// The lane count as a label (`"64"`, `"128"`, `"256"`).
    pub fn label(self) -> &'static str {
        match self {
            LaneWidth::W64 => "64",
            LaneWidth::W128 => "128",
            LaneWidth::W256 => "256",
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Reusable workspace for `64 · W`-wide bit-parallel multi-source BFS.
///
/// All buffers are retained between runs, so batched sweeps (e.g. the
/// `n / (64 · W)` passes of an all-pairs computation) never reallocate.
/// Use the [`MsBfs`] alias for the width-1 workspace.
#[derive(Clone, Debug, Default)]
pub struct MsBfsW<const W: usize> {
    /// `seen[v]` bit `i` (of the flattened block) ⇔ lane `i`'s search
    /// already visited `v`.
    seen: Vec<[u64; W]>,
    /// `frontier[v]` bit `i` ⇔ lane `i` reached `v` at the current level.
    frontier: Vec<[u64; W]>,
    /// Next-level frontier accumulator (doubles as "queued" flag).
    next: Vec<[u64; W]>,
    /// Nodes with non-empty `frontier` at the current level.
    cur_list: Vec<NodeId>,
    /// Nodes with non-empty `next` (deduplicated via `next[v] == 0`).
    next_list: Vec<NodeId>,
    /// Bit-sliced depth accumulator for the distance fills, plane-major:
    /// `planes[p][v]` holds, per lane, bit `p` of the lane's depth at `v`
    /// relative to the current 255-level window (see [`WINDOW`]). Levels
    /// OR `newly` into the planes of the relative depth's set bits —
    /// per-*event* word ops that scale with `W` exactly like the
    /// traversal and touch only those planes' words — and a decode at
    /// each window's end reassembles bytes, instead of per-discovery
    /// scalar stores. Every decode clears the planes it read, so they
    /// are all zero between fills. Grown lazily: only the distance fills
    /// pay for it.
    planes: [Vec<[u64; W]>; 8],
    /// Nodes discovered in the current window past the first, up to
    /// `n / 16` entries (with repeats); a fuller window decodes every
    /// node instead.
    touched: Vec<NodeId>,
    /// Per-range `nxt` fragments of a split bottom-up level.
    frags: Vec<Vec<NodeId>>,
    /// Threads a distance fill splits its big levels and decodes across.
    threads: usize,
    /// Levels run split across threads since the workspace was created.
    split_levels: u64,
}

/// The historical 64-lane workspace: width-1 [`MsBfsW`].
pub type MsBfs = MsBfsW<1>;

/// Depth levels one window of the 8 depth planes holds. Window `w`
/// records relative depth `d − 255 w ∈ 1..=255`, so a zero plane value
/// means "not discovered in this window" and a pass of any depth runs
/// one traversal, decoding each window as it closes.
const WINDOW: u32 = 255;

/// Bottom-up levels and plane decodes over at least this many nodes
/// split across [`MsBfsW::set_threads`] threads. Smaller graphs — every
/// pass at `n = 4096` — never spawn a thread.
const SPLIT_MIN: usize = 1 << 15;

#[inline]
fn block_is_zero<const W: usize>(a: &[u64; W]) -> bool {
    let mut any = 0u64;
    for &w in a {
        any |= w;
    }
    any == 0
}

/// `SPREAD[b]` distributes the 8 bits of `b` across a word's 8 bytes: bit
/// `j` of `b` lands at bit 0 of byte `j`. The decode step reassembles 8
/// depth bytes at a time as `Σ_p SPREAD[plane_p byte] << p` — one
/// L1-resident 2 KiB table lookup per plane byte, with every lookup
/// independent (no serial shuffle chain).
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            t[b] |= (((b >> j) & 1) as u64) << (8 * j);
            j += 1;
        }
        b += 1;
    }
    t
};

/// The 8 depth planes of a node range, plane-major, indexed from the
/// range's first node.
type Planes<'a, const W: usize> = [&'a mut [[u64; W]]; 8];

/// Decodes word `i` of node `v`'s depth planes into the relative-depth
/// bytes of lanes `64 i .. 64 i + 8 groups`. Only the first `pbits`
/// planes can be non-zero, so higher planes are never read, and planes
/// above the node's highest non-zero one cost no lookups.
#[inline]
fn decode_word<const W: usize>(
    planes: &Planes<'_, W>,
    v: usize,
    i: usize,
    pbits: usize,
    groups: usize,
) -> [u8; 64] {
    let mut words = [0u64; 8];
    let mut top = 0;
    for (p, plane) in planes[..pbits].iter().enumerate() {
        words[p] = plane[v][i];
        if words[p] != 0 {
            top = p + 1;
        }
    }
    let mut out = [0u8; 64];
    if top == 0 {
        return out;
    }
    for g in 0..groups {
        // Byte j of `acc` collects bit g·8+j of every plane at bit p —
        // i.e. the full depth of lane g·8+j.
        let mut acc = 0u64;
        for (p, &w) in words[..top].iter().enumerate() {
            acc |= SPREAD[(w >> (8 * g)) as usize & 0xFF] << p;
        }
        out[g * 8..g * 8 + 8].copy_from_slice(&acc.to_le_bytes());
    }
    out
}

/// The full-lane mask for a `k`-source pass: bits `0..k` set across the
/// word block.
#[inline]
fn full_mask<const W: usize>(k: usize) -> [u64; W] {
    let mut full = [0u64; W];
    for (w, slot) in full.iter_mut().enumerate() {
        let lo = w * 64;
        if k >= lo + 64 {
            *slot = !0;
        } else if k > lo {
            *slot = (1u64 << (k - lo)) - 1;
        }
    }
    full
}

/// Planes a window whose largest relative depth is `r` may have set.
#[inline]
fn plane_bits(r: u32) -> usize {
    (32 - r.leading_zeros()) as usize
}

/// A distance cell a fill writes. The type's all-ones value is both the
/// unreached sentinel and the exclusive depth cap: a pass that reaches
/// it is refused.
trait Cell: Copy + Send + Sync {
    const INF: Self;
    /// `INF` as a depth: the first depth a fill refuses.
    const CAP: u32;
    fn depth(d: u32) -> Self;
}

macro_rules! cell {
    ($t:ty) => {
        impl Cell for $t {
            const INF: $t = <$t>::MAX;
            const CAP: u32 = <$t>::MAX as u32;
            #[inline]
            fn depth(d: u32) -> $t {
                d as $t
            }
        }
    };
}
cell!(u8);
cell!(u16);
cell!(u32);

/// Where a fill's decoded depths land: one slice per lane, indexed by
/// node from the first node of the range it covers.
type Rows<'a, C> = Vec<&'a mut [C]>;

/// Cuts per-lane rows into pieces for the consecutive node ranges of
/// `lens`.
fn split_rows<'a, C>(rows: Rows<'a, C>, lens: &[usize]) -> Vec<Rows<'a, C>> {
    let mut pieces: Vec<Rows<'a, C>> = lens
        .iter()
        .map(|_| Vec::with_capacity(rows.len()))
        .collect();
    for mut row in rows {
        for (piece, &len) in pieces.iter_mut().zip(lens) {
            let (head, tail) = row.split_at_mut(len);
            piece.push(head);
            row = tail;
        }
    }
    pieces
}

/// Lengths of `parts` consecutive ranges covering `0..n`, cut at
/// multiples of 64 so decode tiles never straddle two ranges.
fn range_lens(n: usize, parts: usize) -> Vec<usize> {
    let cut = |t: usize| ((n * t / parts) & !63).min(n);
    (0..parts)
        .map(|t| if t + 1 == parts { n } else { cut(t + 1) } - cut(t))
        .collect()
}

/// Runs `f(lo, planes, rows)` over consecutive node ranges of the
/// planes' nodes, with `planes` and `rows` cut to match: one range per
/// part, range 0 on the calling thread and the rest on scoped threads.
/// One part runs inline with no split at all.
fn for_ranges<const W: usize, C: Cell>(
    parts: usize,
    planes: Planes<'_, W>,
    rows: Rows<'_, C>,
    f: impl Fn(usize, Planes<'_, W>, Rows<'_, C>) + Sync,
) {
    if parts <= 1 {
        return f(0, planes, rows);
    }
    let lens = range_lens(planes[0].len(), parts);
    let mut pieces: Vec<Planes<'_, W>> = lens.iter().map(|_| Default::default()).collect();
    for (p, mut rest) in planes.into_iter().enumerate() {
        for (piece, &len) in pieces.iter_mut().zip(&lens) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            piece[p] = head;
            rest = tail;
        }
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut lo = 0;
        let mut inline = None;
        for ((&len, planes), rows) in lens.iter().zip(pieces).zip(split_rows(rows, &lens)) {
            if lo == 0 {
                inline = Some((planes, rows));
            } else {
                s.spawn(move || f(lo, planes, rows));
            }
            lo += len;
        }
        if let Some((planes, rows)) = inline {
            f(0, planes, rows);
        }
    });
}

/// Decodes the depth planes of one node range into `rows` and clears
/// them: the lane with relative depth `r` at a node gets `base + r`.
/// Window 0 (`base == 0`) writes every lane, zero included — a source,
/// or a lane that a later window or the unreached patch overwrites;
/// later windows write only lanes with `r ≠ 0`. Rows are written through
/// 64-node tiles whose decoded bytes sit in a 4 KiB L1-resident buffer,
/// so neither side streams a cold `n × k` scratch.
fn decode_range<const W: usize, C: Cell>(
    mut planes: Planes<'_, W>,
    rows: &mut Rows<'_, C>,
    k: usize,
    base: u32,
    pbits: usize,
) {
    const TILE: usize = 64;
    let len = planes[0].len();
    let mut tile_buf = [[0u8; 64]; TILE];
    for v0 in (0..len).step_by(TILE) {
        let tn = TILE.min(len - v0);
        for i in 0..k.div_ceil(64) {
            let lane_lo = i * 64;
            let lanes = (k - lane_lo).min(64);
            for (t, buf) in tile_buf[..tn].iter_mut().enumerate() {
                *buf = decode_word(&planes, v0 + t, i, pbits, lanes.div_ceil(8));
            }
            // Indexing `tile_buf[t][j]` by the outer loop variable is the
            // transpose itself, not an iterator in disguise.
            #[allow(clippy::needless_range_loop)]
            for j in 0..lanes {
                let cells = &mut rows[lane_lo + j][v0..v0 + tn];
                if base == 0 {
                    for (t, c) in cells.iter_mut().enumerate() {
                        *c = C::depth(tile_buf[t][j] as u32);
                    }
                } else {
                    for (t, c) in cells.iter_mut().enumerate() {
                        let r = tile_buf[t][j];
                        if r != 0 {
                            *c = C::depth(base + r as u32);
                        }
                    }
                }
            }
        }
    }
    for plane in &mut planes[..pbits] {
        plane.fill([0; W]);
    }
}

/// Decodes node `v`'s planes of a window past the first into `rows`,
/// like [`decode_range`], and clears them.
fn decode_node<const W: usize, C: Cell>(
    planes: &mut Planes<'_, W>,
    v: usize,
    rows: &mut Rows<'_, C>,
    k: usize,
    base: u32,
    pbits: usize,
) {
    for i in 0..k.div_ceil(64) {
        let lanes = (k - i * 64).min(64);
        let buf = decode_word(planes, v, i, pbits, lanes.div_ceil(8));
        for (j, &r) in buf[..lanes].iter().enumerate() {
            if r != 0 {
                rows[i * 64 + j][v] = C::depth(base + r as u32);
            }
        }
    }
    for plane in &mut planes[..pbits] {
        plane[v] = [0; W];
    }
}

/// Writes `INF` into every cell whose lane never reached its node, for
/// the node range whose `seen` masks are given.
fn patch_unreached<const W: usize, C: Cell>(
    seen: &[[u64; W]],
    rows: &mut Rows<'_, C>,
    full: &[u64; W],
) {
    for (v, seen) in seen.iter().enumerate() {
        for (i, (&word, &all)) in seen.iter().zip(full).enumerate() {
            let mut missing = all & !word;
            while missing != 0 {
                rows[i * 64 + missing.trailing_zeros() as usize][v] = C::INF;
                missing &= missing - 1;
            }
        }
    }
}

/// The bottom-up pull over the node range `lo .. lo + next.len()`: the
/// frontier covers a large fraction of the graph, so pull from the (few)
/// lanes still missing at each node and stop scanning a node's
/// neighbours as soon as its missing lanes are covered. Writes each
/// newly reached node's lanes into `next` and appends the node to `nxt`
/// in ascending order.
fn pull_range<const W: usize>(
    g: &Graph,
    seen: &[[u64; W]],
    frontier: &[[u64; W]],
    next: &mut [[u64; W]],
    lo: usize,
    full: &[u64; W],
    nxt: &mut Vec<NodeId>,
) {
    for (vu, slot) in (lo..).zip(next.iter_mut()) {
        let sv = &seen[vu];
        let mut missing = [0u64; W];
        let mut any = 0u64;
        for i in 0..W {
            missing[i] = full[i] & !sv[i];
            any |= missing[i];
        }
        if any == 0 {
            continue;
        }
        // Pull plain `OR`s in runs of 8 neighbours and test coverage
        // once per run: a per-neighbour covered check costs more than the
        // neighbours it skips on low-degree graphs (the common case
        // here), while high-degree nodes still stop after the first
        // covering run instead of scanning the whole list.
        let mut cand = [0u64; W];
        for chunk in g.neighbors(vu as NodeId).chunks(8) {
            for &w in chunk {
                let fw = &frontier[w as usize];
                for (c, f) in cand.iter_mut().zip(fw) {
                    *c |= f;
                }
            }
            let covered = cand.iter().zip(&missing).all(|(c, m)| c & m == *m);
            if covered {
                break;
            }
        }
        let mut new = [0u64; W];
        let mut any_new = 0u64;
        for i in 0..W {
            new[i] = cand[i] & missing[i];
            any_new |= new[i];
        }
        if any_new != 0 {
            nxt.push(vu as NodeId);
            *slot = new;
        }
    }
}

impl<const W: usize> MsBfsW<W> {
    /// Bit lanes (sources) one pass of this width carries.
    pub const LANES: usize = LANES * W;

    /// Creates a workspace able to search graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        MsBfsW {
            seen: vec![[0; W]; n],
            frontier: vec![[0; W]; n],
            next: vec![[0; W]; n],
            cur_list: Vec::new(),
            next_list: Vec::new(),
            planes: Default::default(),
            touched: Vec::new(),
            frags: Vec::new(),
            threads: 1,
            split_levels: 0,
        }
    }

    /// Ensures capacity for graphs of `n` nodes (cheap if already large
    /// enough).
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, [0; W]);
            self.frontier.resize(n, [0; W]);
            self.next.resize(n, [0; W]);
        }
    }

    /// Sets how many threads one distance fill may use (`1`, the
    /// default, keeps every pass on the calling thread). A pass splits
    /// its bottom-up levels and its plane decodes into contiguous node
    /// ranges, one per thread, once the graph has at least 2¹⁵ nodes;
    /// the ranges' discoveries are concatenated in node order, so the
    /// output never depends on the thread count. [`MsBfsW::run`] and
    /// [`MsBfsW::eccentricities`] always run serially.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// How many levels this workspace's fills have split across threads
    /// since it was created: a diagnostic that shows whether
    /// [`MsBfsW::set_threads`] engages on a given graph.
    pub fn split_levels(&self) -> u64 {
        self.split_levels
    }

    /// Runs one bit-parallel BFS pass carrying `sources.len() ≤ 64 · W`
    /// lanes, invoking `visit(lane, node, dist)` for every (lane, node)
    /// discovery — including each source at distance 0. Duplicate sources
    /// are allowed (their lanes see identical discoveries).
    ///
    /// Discoveries are emitted level by level; within a level, in a
    /// deterministic (discovery-list, then lane-index) order that does not
    /// depend on anything but the graph and the source list.
    ///
    /// # Panics
    /// Panics if `sources` is empty, has more than `64 · W` entries, or
    /// names a node `≥ g.num_nodes()`.
    pub fn run<F: FnMut(u32, NodeId, u32)>(&mut self, g: &Graph, sources: &[NodeId], mut visit: F) {
        self.begin(g, sources);
        for (lane, &s) in sources.iter().enumerate() {
            visit(lane as u32, s, 0);
        }
        self.levels(g, sources.len(), u32::MAX, 1, |v, newly, depth| {
            for (i, &word) in newly.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let lane = (i * 64) as u32 + bits.trailing_zeros();
                    visit(lane, v, depth);
                    bits &= bits - 1;
                }
            }
        });
    }

    /// Seeds `seen`/`frontier`/`cur_list` for a pass over `sources`,
    /// validating the batch (shared by [`MsBfsW::run`] and the distance
    /// fills, which emit their own depth-0 records).
    fn begin(&mut self, g: &Graph, sources: &[NodeId]) {
        let n = g.num_nodes();
        assert!(
            !sources.is_empty() && sources.len() <= Self::LANES,
            "MS-BFS takes 1..={} sources, got {}",
            Self::LANES,
            sources.len()
        );
        self.ensure_capacity(n);
        // Bitmask workspaces carry no epoch trick (bits of distinct lanes
        // alias); clearing is O(n · W) per pass but amortises over the
        // pass's 64 · W lanes.
        self.seen[..n].fill([0; W]);
        self.frontier[..n].fill([0; W]);
        self.next[..n].fill([0; W]);
        self.cur_list.clear();
        self.next_list.clear();
        for (lane, &s) in sources.iter().enumerate() {
            assert!((s as usize) < n, "source {s} out of range (n = {n})");
            let su = s as usize;
            if block_is_zero(&self.seen[su]) {
                self.cur_list.push(s);
            }
            let (word, bit) = (lane / 64, 1u64 << (lane % 64));
            self.seen[su][word] |= bit;
            self.frontier[su][word] |= bit;
        }
    }

    /// Runs the level loop of a pass seeded by [`MsBfsW::begin`], invoking
    /// `blocks(node, newly, depth)` once per node per level with the word
    /// block of lanes that discovered the node at that depth (`depth ≥ 1`;
    /// depth-0 records are the caller's). Nodes are emitted in
    /// discovery-list order within a level — [`MsBfsW::run`] unpacks the
    /// blocks into its per-lane visit order from here. Bottom-up levels
    /// of a graph with at least [`SPLIT_MIN`] nodes split into `parts`
    /// node ranges on scoped threads; their discoveries concatenate in
    /// range order, which is the serial order. Returns `false`, and stops
    /// before emitting it, at the first level whose depth reaches `cap`.
    fn levels<F: FnMut(NodeId, &[u64; W], u32)>(
        &mut self,
        g: &Graph,
        k: usize,
        cap: u32,
        parts: usize,
        mut blocks: F,
    ) -> bool {
        let n = g.num_nodes();
        let parts = if n >= SPLIT_MIN { parts } else { 1 };
        // The lists move out of `self` so the hot loops can hold plain
        // slice bindings (no repeated field loads, no indexed re-borrows).
        let mut cur = std::mem::take(&mut self.cur_list);
        let mut nxt = std::mem::take(&mut self.next_list);
        let mut frags = std::mem::take(&mut self.frags);
        frags.resize_with(parts.max(frags.len()), Vec::new);
        let full = full_mask::<W>(k);
        let mut depth = 0u32;
        let mut within_cap = true;
        while !cur.is_empty() {
            // Expand, direction-optimized (Beamer-style). `seen` is stable
            // during either scan, so the bits landing in `next[v]` are
            // exactly the lanes newly discovering `v`.
            let seen = &self.seen[..n];
            let frontier = &self.frontier[..n];
            let next = &mut self.next[..n];
            if cur.len() >= n / 8 {
                // Bottom-up once the active list covers n / 8 nodes.
                // Sparse levels (long thin graphs) never trigger this arm,
                // keeping the `O(active)`-per-level behaviour there. The
                // threshold measured flat across widths: wider blocks cost
                // more per pulled word but early-exit sooner (more lanes
                // are missing per node), so the crossover stays put.
                if parts > 1 {
                    self.split_levels += 1;
                    let lens = range_lens(n, parts);
                    std::thread::scope(|s| {
                        let mut rest = next;
                        let mut lo = 0;
                        for (&len, frag) in lens.iter().zip(&mut frags) {
                            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
                            rest = tail;
                            frag.clear();
                            let full = &full;
                            let mut pull =
                                move || pull_range(g, seen, frontier, piece, lo, full, frag);
                            if lo + len == n {
                                pull();
                            } else {
                                s.spawn(pull);
                            }
                            lo += len;
                        }
                    });
                    for frag in &frags[..parts] {
                        nxt.extend_from_slice(frag);
                    }
                } else {
                    pull_range(g, seen, frontier, next, 0, &full, &mut nxt);
                }
            } else {
                // Top-down: push every frontier lane across every
                // incident edge.
                for &u in &cur {
                    let fu = frontier[u as usize];
                    for &v in g.neighbors(u) {
                        let vu = v as usize;
                        let sv = &seen[vu];
                        let mut new = [0u64; W];
                        let mut any = 0u64;
                        for i in 0..W {
                            new[i] = fu[i] & !sv[i];
                            any |= new[i];
                        }
                        if any != 0 {
                            let slot = &mut next[vu];
                            if block_is_zero(slot) {
                                nxt.push(v);
                            }
                            for i in 0..W {
                                slot[i] |= new[i];
                            }
                        }
                    }
                }
            }
            if !nxt.is_empty() && depth + 1 >= cap {
                // Stale `next` bits are cleared by the next `begin`.
                within_cap = false;
                break;
            }
            // `next` now holds exactly the new frontier: swap it in, and
            // retire the old frontier — the new `next` — at `cur`, so
            // `next` is all zero again for the following level.
            std::mem::swap(&mut self.frontier, &mut self.next);
            for &u in &cur {
                self.next[u as usize] = [0; W];
            }
            depth += 1;
            for &v in &nxt {
                let vu = v as usize;
                let newly = &self.frontier[vu];
                for (slot, &nw) in self.seen[vu].iter_mut().zip(newly) {
                    *slot |= nw;
                }
                blocks(v, newly, depth);
            }
            std::mem::swap(&mut cur, &mut nxt);
            nxt.clear();
        }
        self.cur_list = cur;
        self.next_list = nxt;
        self.frags = frags;
        within_cap
    }

    /// The one distance fill behind every row-writing entry point:
    /// a single traversal pass that records depths into the bit-sliced
    /// `planes` instead of emitting per-lane discoveries. Each level ORs
    /// its `newly` block into the planes of the relative depth's set bits
    /// (≤ 8 word-block ORs per *node event*, so the recording cost scales
    /// with `W` exactly like the traversal — unlike per-discovery scalar
    /// stores, which cost one write per *cell* and dominate wide passes).
    ///
    /// Depths are recorded in [`WINDOW`]s of 255 levels. When a level
    /// opens window `w ≥ 1`, window `w − 1` is decoded into `rows` at
    /// `base + r` and its planes cleared. Window 0 streams over every
    /// node; later windows decode the nodes they touched, or every node
    /// once they touched `n / 16` of them. Unreached cells are patched to
    /// `C::INF` from the `seen` masks at the end. Returns `false` —
    /// `rows` partial, planes cleared — when a depth reaches `C::INF`.
    fn fill<C: Cell>(&mut self, g: &Graph, sources: &[NodeId], mut rows: Rows<'_, C>) -> bool {
        let n = g.num_nodes();
        let k = sources.len();
        self.begin(g, sources);
        for plane in &mut self.planes {
            if plane.len() < n {
                plane.resize(n, [0; W]);
            }
        }
        // Taken out of `self` for the closure (`levels` borrows the
        // traversal state mutably); restored below.
        let mut planes = std::mem::take(&mut self.planes);
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        let parts = if n >= SPLIT_MIN { self.threads } else { 1 };
        let dense_at = n / 16;
        let (mut window, mut dense, mut maxd) = (0u32, true, 0u32);
        let within_cap = self.levels(g, k, C::CAP, parts, |v, newly, d| {
            let w = (d - 1) / WINDOW;
            if w != window {
                let base = window * WINDOW;
                let view = planes.each_mut().map(|p| &mut p[..n]);
                flush_window(view, &mut touched, dense, &mut rows, k, base, 8, parts);
                (window, dense) = (w, false);
            }
            maxd = d;
            if !dense {
                if touched.len() < dense_at {
                    touched.push(v);
                } else {
                    dense = true;
                }
            }
            let mut r = d - w * WINDOW;
            while r != 0 {
                let slot = &mut planes[r.trailing_zeros() as usize][v as usize];
                for (s, &nw) in slot.iter_mut().zip(newly) {
                    *s |= nw;
                }
                r &= r - 1;
            }
        });
        if within_cap {
            let base = window * WINDOW;
            let pbits = plane_bits(maxd - base);
            if !dense {
                let view = planes.each_mut().map(|p| &mut p[..n]);
                flush_window(view, &mut touched, false, &mut rows, k, base, pbits, 1);
            }
            let seen = &self.seen[..n];
            let full = full_mask::<W>(k);
            let view = planes.each_mut().map(|p| &mut p[..n]);
            for_ranges(parts, view, rows, |lo, view, mut piece| {
                let len = view[0].len();
                if dense {
                    decode_range(view, &mut piece, k, base, pbits);
                }
                patch_unreached(&seen[lo..lo + len], &mut piece, &full);
            });
        } else {
            for plane in &mut planes {
                plane[..n].fill([0; W]);
            }
        }
        self.planes = planes;
        self.touched = touched;
        within_cap
    }

    /// Fills `rows` — row-major `sources.len() × g.num_nodes()` — with the
    /// BFS distances of each source's lane ([`crate::INFINITY`] for unreached).
    ///
    /// Distances are accumulated bit-sliced in 255-level windows and
    /// decoded in streaming passes, so extraction never costs a scalar
    /// store per (lane, node) cell, and a graph of any diameter is
    /// traversed once.
    ///
    /// # Panics
    /// Panics if `rows.len() != sources.len() * g.num_nodes()` (in
    /// addition to [`MsBfsW::run`]'s conditions).
    pub fn distances_into(&mut self, g: &Graph, sources: &[NodeId], rows: &mut [u32]) {
        let ok = self.fill_lane_rows(g, sources, rows);
        debug_assert!(ok, "u32 depth cells cannot overflow");
    }

    /// [`MsBfsW::distances_into`] at 8-bit width, with `u8::MAX` for
    /// unreached nodes: a quarter of the `u32` staging for callers that
    /// only bucket distances (the ball-row builder). Returns `false` —
    /// `rows` contents unspecified — when a finite distance reaches
    /// `u8::MAX`; the pass stops at that level, and the caller falls back
    /// to a wider fill.
    ///
    /// # Panics
    /// Panics if `rows.len() != sources.len() * g.num_nodes()` (in
    /// addition to [`MsBfsW::run`]'s conditions).
    pub fn distances_into_bytes(&mut self, g: &Graph, sources: &[NodeId], rows: &mut [u8]) -> bool {
        self.fill_lane_rows(g, sources, rows)
    }

    /// Lane-major `sources.len() × n` rows behind [`MsBfsW::distances_into`]
    /// and [`MsBfsW::distances_into_bytes`].
    fn fill_lane_rows<C: Cell>(&mut self, g: &Graph, sources: &[NodeId], rows: &mut [C]) -> bool {
        let n = g.num_nodes();
        assert_eq!(
            rows.len(),
            sources.len() * n,
            "rows buffer must be sources.len() * n"
        );
        self.fill(g, sources, rows.chunks_mut(n.max(1)).collect())
    }

    /// Fills one `n`-cell row per source: row `i` gets source `i`'s
    /// distances, `u16::MAX` (the narrow-storage infinity,
    /// [`crate::distance::NARROW_INFINITY`]) when unreached. Returns
    /// `false` — contents unspecified — when a finite distance reaches
    /// `u16::MAX` (an eccentricity ≥ 65535); the caller then refills at
    /// `u32`.
    fn fill_narrow_rows(&mut self, g: &Graph, sources: &[NodeId], rows: &mut [Vec<u16>]) -> bool {
        self.fill(g, sources, rows.iter_mut().map(|r| &mut r[..]).collect())
    }

    /// Owned-buffer convenience around [`MsBfsW::distances_into`].
    pub fn distances(&mut self, g: &Graph, sources: &[NodeId]) -> Vec<u32> {
        // Zero-init: `distances_into` overwrites every slot (reached ones
        // from the planes, the rest via the INFINITY patch).
        let mut rows = vec![0u32; sources.len() * g.num_nodes()];
        self.distances_into(g, sources, &mut rows);
        rows
    }

    /// Per-lane `(eccentricity, reached_count)` of one pass: the maximum
    /// finite distance each lane saw and how many nodes it reached. Feeds
    /// exact diameters/eccentricities without materialising rows.
    pub fn eccentricities(&mut self, g: &Graph, sources: &[NodeId]) -> Vec<(u32, usize)> {
        let mut out = vec![(0u32, 0usize); sources.len()];
        self.run(g, sources, |lane, _, d| {
            let slot = &mut out[lane as usize];
            slot.0 = slot.0.max(d);
            slot.1 += 1;
        });
        out
    }
}

/// Decodes one closed window of depth planes into `rows` at `base + r`
/// and clears them: every node when `dense` (split over `parts` node
/// ranges), else only the `touched` nodes, in node order.
#[allow(clippy::too_many_arguments)]
fn flush_window<const W: usize, C: Cell>(
    mut planes: Planes<'_, W>,
    touched: &mut Vec<NodeId>,
    dense: bool,
    rows: &mut Rows<'_, C>,
    k: usize,
    base: u32,
    pbits: usize,
    parts: usize,
) {
    if dense {
        let reborrow = rows.iter_mut().map(|r| &mut **r).collect();
        for_ranges(parts, planes, reborrow, |_, view, mut piece| {
            decode_range(view, &mut piece, k, base, pbits)
        });
    } else {
        touched.sort_unstable();
        touched.dedup();
        for &v in touched.iter() {
            decode_node(&mut planes, v as usize, rows, k, base, pbits);
        }
    }
    touched.clear();
}

/// Per-thread reusable workspace access, implemented for each supported
/// width ([`MsBfsW<1>`], [`MsBfsW<2>`], [`MsBfsW<4>`]). Width-generic
/// batch code bounds on this trait to recycle buffers across passes,
/// both inline and on `nav-par` workers.
pub trait MsBfsWorkspace: Sized {
    /// Runs `f` with this thread's reusable workspace of this width,
    /// grown to capacity `n`, on one thread ([`MsBfsW::set_threads`] is
    /// reset to 1 for every call).
    ///
    /// # Panics
    /// Panics if called re-entrantly from within `f` (the workspace is
    /// exclusive per thread; batch loops never nest MS-BFS passes).
    fn with_ws<R>(n: usize, f: impl FnOnce(&mut Self) -> R) -> R;
}

macro_rules! msbfs_workspace {
    ($tls:ident, $w:literal) => {
        thread_local! {
            static $tls: std::cell::RefCell<MsBfsW<$w>> =
                std::cell::RefCell::new(MsBfsW::new(0));
        }
        impl MsBfsWorkspace for MsBfsW<$w> {
            fn with_ws<R>(n: usize, f: impl FnOnce(&mut Self) -> R) -> R {
                $tls.with(|cell| {
                    let mut ws = cell.borrow_mut();
                    ws.ensure_capacity(n);
                    ws.set_threads(1);
                    f(&mut ws)
                })
            }
        }
    };
}
msbfs_workspace!(MSBFS_WS64, 1);
msbfs_workspace!(MSBFS_WS128, 2);
msbfs_workspace!(MSBFS_WS256, 4);

/// Fills `rows` — row-major `sources.len() × g.num_nodes()` — with the BFS
/// distance rows of `sources`: `width.lanes()` sources per MS-BFS pass,
/// passes fanned out to `threads` `nav-par` workers that write disjoint
/// stripes of `rows` in place (`1` = inline). Output is **bit-identical
/// at every width** (each lane is an exact BFS); the width only changes
/// how many sources amortise one traversal.
///
/// # Panics
/// Panics if `rows.len() != sources.len() * g.num_nodes()`.
pub fn batched_rows_into_w(
    g: &Graph,
    sources: &[NodeId],
    threads: usize,
    width: LaneWidth,
    rows: &mut [u32],
) {
    match width {
        LaneWidth::W64 => batched_rows_impl_for::<1>(g, sources, threads, rows),
        LaneWidth::W128 => batched_rows_impl_for::<2>(g, sources, threads, rows),
        LaneWidth::W256 => batched_rows_impl_for::<4>(g, sources, threads, rows),
    }
}

fn batched_rows_impl_for<const W: usize>(
    g: &Graph,
    sources: &[NodeId],
    threads: usize,
    rows: &mut [u32],
) where
    MsBfsW<W>: MsBfsWorkspace,
{
    let n = g.num_nodes();
    assert_eq!(
        rows.len(),
        sources.len() * n,
        "rows buffer must be sources.len() * n"
    );
    let lanes = MsBfsW::<W>::LANES;
    let batches: Vec<&[NodeId]> = sources.chunks(lanes).collect();
    let (outer, inner) = pass_threads(batches.len(), threads);
    nav_par::parallel_chunks_mut(rows, lanes * n.max(1), outer, |b, stripe| {
        MsBfsW::<W>::with_ws(n, |ms| {
            ms.set_threads(inner);
            ms.distances_into(g, batches[b], stripe)
        });
    });
}

/// Splits `threads` between a fill's `passes`: passes fan out first, and
/// threads the passes leave idle split each pass's levels instead.
/// Returns `(workers over passes, threads inside one pass)`.
fn pass_threads(passes: usize, threads: usize) -> (usize, usize) {
    let threads = threads.max(1);
    if passes >= threads {
        (threads, 1)
    } else {
        (passes, threads / passes.max(1))
    }
}

/// The distance rows of `sources` as compact [`DistRowBuf`]s, one per
/// source in order, at `width.lanes()` sources per pass: each pass
/// writes its rows straight into per-row `u16` buffers, so no
/// `sources.len() × n` staging buffer exists at any point. A pass whose
/// graph has a finite distance `≥ u16::MAX` refills at `u32` and keeps
/// each row at the width [`DistRowBuf::from_wide`] picks for it. Passes
/// fan out to `threads` workers, and a pass with idle threads splits its
/// levels across them ([`MsBfsW::set_threads`]); the rows are
/// bit-identical at every width and thread count.
pub fn batched_compact_rows_w(
    g: &Graph,
    sources: &[NodeId],
    threads: usize,
    width: LaneWidth,
) -> Vec<DistRowBuf> {
    match width {
        LaneWidth::W64 => compact_rows_for::<1>(g, sources, threads),
        LaneWidth::W128 => compact_rows_for::<2>(g, sources, threads),
        LaneWidth::W256 => compact_rows_for::<4>(g, sources, threads),
    }
}

fn compact_rows_for<const W: usize>(
    g: &Graph,
    sources: &[NodeId],
    threads: usize,
) -> Vec<DistRowBuf>
where
    MsBfsW<W>: MsBfsWorkspace,
{
    let n = g.num_nodes();
    let batches: Vec<&[NodeId]> = sources.chunks(MsBfsW::<W>::LANES).collect();
    let (outer, inner) = pass_threads(batches.len(), threads);
    let mut passes: Vec<Vec<DistRowBuf>> = vec![Vec::new(); batches.len()];
    nav_par::parallel_chunks_mut(&mut passes, 1, outer, |b, cell| {
        let batch = batches[b];
        cell[0] = MsBfsW::<W>::with_ws(n, |ms| {
            ms.set_threads(inner);
            let mut narrow: Vec<Vec<u16>> = batch.iter().map(|_| vec![0u16; n]).collect();
            if ms.fill_narrow_rows(g, batch, &mut narrow) {
                return narrow.into_iter().map(DistRowBuf::Narrow).collect();
            }
            drop(narrow);
            let mut wide = vec![0u32; batch.len() * n];
            ms.distances_into(g, batch, &mut wide);
            wide.chunks(n).map(DistRowBuf::from_wide).collect()
        });
    });
    passes.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs::Bfs, GraphBuilder, INFINITY};

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    fn circulant(n: usize, chords: &[u32]) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n as NodeId {
            b.add_edge(u, (u + 1) % n as NodeId);
            for &c in chords {
                b.add_edge(u, (u + c) % n as NodeId);
            }
        }
        b.build().unwrap()
    }

    fn assert_matches_scalar_w<const W: usize>(g: &Graph, sources: &[NodeId]) {
        let n = g.num_nodes();
        let mut ms = MsBfsW::<W>::new(n);
        let rows = ms.distances(g, sources);
        let mut bfs = Bfs::new(n);
        for (lane, &s) in sources.iter().enumerate() {
            let scalar = bfs.distances(g, s);
            assert_eq!(
                &rows[lane * n..(lane + 1) * n],
                scalar.as_slice(),
                "W={W} lane {lane} (source {s})"
            );
        }
    }

    fn assert_matches_scalar(g: &Graph, sources: &[NodeId]) {
        assert_matches_scalar_w::<1>(g, sources);
    }

    #[test]
    fn matches_scalar_on_path() {
        let g = path(50);
        assert_matches_scalar(&g, &[0, 7, 25, 49]);
    }

    #[test]
    fn matches_scalar_on_circulant_full_batch() {
        let g = circulant(130, &[5, 17]);
        let sources: Vec<NodeId> = (0..64u32).map(|i| i * 2).collect();
        assert_matches_scalar(&g, &sources);
    }

    #[test]
    fn wide_blocks_match_scalar_at_full_capacity() {
        let g = circulant(300, &[5, 17]);
        let sources128: Vec<NodeId> = (0..128u32).map(|i| i * 2 % 300).collect();
        assert_matches_scalar_w::<2>(&g, &sources128);
        let sources256: Vec<NodeId> = (0..256u32).map(|i| (i * 7 + 3) % 300).collect();
        assert_matches_scalar_w::<4>(&g, &sources256);
    }

    #[test]
    fn wide_blocks_match_scalar_on_partial_and_disconnected() {
        let g = GraphBuilder::from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6), (7, 8)]).unwrap();
        // Partial last word (65 and 130 lanes) plus unreachable nodes.
        let sources65: Vec<NodeId> = (0..65u32).map(|i| i % 9).collect();
        assert_matches_scalar_w::<2>(&g, &sources65);
        let sources130: Vec<NodeId> = (0..130u32).map(|i| i % 9).collect();
        assert_matches_scalar_w::<4>(&g, &sources130);
    }

    #[test]
    fn widths_are_bit_identical_on_shared_batches() {
        // The same ≤ 64-source batch through every width: byte-for-byte
        // equal rows (the width contract the engine's cold fill relies on).
        for g in [path(70), circulant(96, &[9, 31])] {
            let sources: Vec<NodeId> = (0..48u32).collect();
            let rows1 = MsBfsW::<1>::new(0).distances(&g, &sources);
            let rows2 = MsBfsW::<2>::new(0).distances(&g, &sources);
            let rows4 = MsBfsW::<4>::new(0).distances(&g, &sources);
            assert_eq!(rows1, rows2);
            assert_eq!(rows1, rows4);
        }
    }

    #[test]
    fn batched_rows_into_w_is_width_invariant() {
        let g = circulant(150, &[7, 40]);
        let sources: Vec<NodeId> = (0..150u32).collect();
        let n = g.num_nodes();
        let mut bfs = Bfs::new(n);
        let base: Vec<u32> = sources.iter().flat_map(|&s| bfs.distances(&g, s)).collect();
        for width in LaneWidth::ALL {
            for threads in [1, 3] {
                let mut rows = vec![0u32; sources.len() * n];
                batched_rows_into_w(&g, &sources, threads, width, &mut rows);
                assert_eq!(rows, base, "width {width} threads {threads}");
            }
        }
    }

    #[test]
    fn matches_scalar_on_disconnected() {
        let g = GraphBuilder::from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        assert_matches_scalar(&g, &[0, 2, 3, 5, 6]);
        let mut ms = MsBfs::new(7);
        let rows = ms.distances(&g, &[0]);
        assert_eq!(rows[3], INFINITY);
        assert_eq!(rows[5], INFINITY);
    }

    #[test]
    fn duplicate_sources_share_discoveries() {
        let g = path(10);
        let mut ms = MsBfs::new(10);
        let rows = ms.distances(&g, &[4, 4]);
        assert_eq!(&rows[0..10], &rows[10..20]);
        assert_eq!(rows[0], 4);
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::new(1).build().unwrap();
        let mut ms = MsBfs::new(1);
        assert_eq!(ms.distances(&g, &[0]), vec![0]);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g1 = path(30);
        let g2 = circulant(20, &[3]);
        let mut ms = MsBfs::new(30);
        let _ = ms.distances(&g1, &[0, 29]);
        // Second run on a smaller graph must not see stale bits.
        let rows = ms.distances(&g2, &[0]);
        let mut bfs = Bfs::new(20);
        assert_eq!(rows, bfs.distances(&g2, 0));
        // And growing again afterwards works.
        let g3 = path(100);
        let rows = ms.distances(&g3, &[99]);
        assert_eq!(rows[0], 99);
    }

    #[test]
    fn eccentricities_match_matrix() {
        let g = circulant(40, &[7]);
        let sources: Vec<NodeId> = (0..40u32).collect();
        let mut ms = MsBfs::new(40);
        let ecc = ms.eccentricities(&g, &sources);
        let mut bfs = Bfs::new(40);
        for (lane, &s) in sources.iter().enumerate() {
            let d = bfs.distances(&g, s);
            let max = d.iter().copied().max().unwrap();
            assert_eq!(ecc[lane].0, max);
            assert_eq!(ecc[lane].1, 40);
        }
    }

    #[test]
    #[should_panic(expected = "1..=64 sources")]
    fn too_many_sources_panics() {
        let g = path(100);
        let sources: Vec<NodeId> = (0..65u32).collect();
        MsBfs::new(100).distances(&g, &sources);
    }

    #[test]
    #[should_panic(expected = "1..=256 sources")]
    fn too_many_sources_panics_at_width_4() {
        let g = path(300);
        let sources: Vec<NodeId> = (0..257u32).collect();
        MsBfsW::<4>::new(300).distances(&g, &sources);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let g = path(3);
        MsBfs::new(3).distances(&g, &[3]);
    }

    #[test]
    fn thread_local_workspace_grows_and_reuses() {
        let g1 = path(5);
        let d = MsBfs::with_ws(5, |ms| ms.distances(&g1, &[0]));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let g2 = path(80);
        let d = MsBfs::with_ws(80, |ms| ms.distances(&g2, &[79]));
        assert_eq!(d[0], 79);
        // Each width owns its own thread-local workspace.
        let d = MsBfsW::<2>::with_ws(80, |ms| ms.distances(&g2, &[79]));
        assert_eq!(d[0], 79);
        let d = MsBfsW::<4>::with_ws(80, |ms| ms.distances(&g2, &[0]));
        assert_eq!(d[79], 79);
    }

    #[test]
    fn visit_reports_levels_in_order() {
        let g = path(6);
        let mut ms = MsBfs::new(6);
        let mut last_depth = 0;
        ms.run(&g, &[0, 5], |_, _, d| {
            assert!(d >= last_depth, "levels must be non-decreasing");
            last_depth = d;
        });
        assert_eq!(last_depth, 5);
    }

    #[test]
    fn visit_reports_lanes_ascending_within_a_node_across_words() {
        // 150 duplicate sources: every lane (spanning 3 words at W=4)
        // discovers the same nodes; lanes must come back ascending.
        let g = path(5);
        let sources: Vec<NodeId> = vec![0; 150];
        let mut ms = MsBfsW::<4>::new(5);
        let mut last: Option<(NodeId, u32)> = None;
        ms.run(&g, &sources, |lane, v, _| {
            if let Some((pv, pl)) = last {
                if pv == v {
                    assert!(lane > pl, "lanes must ascend within a node");
                }
            }
            last = Some((v, lane));
        });
    }

    #[test]
    fn spread_table_distributes_bits_to_bytes() {
        for (b, &s) in SPREAD.iter().enumerate() {
            for j in 0..8 {
                assert_eq!(
                    (s >> (8 * j)) & 0xFF,
                    ((b >> j) & 1) as u64,
                    "byte {j} of {b:#x}"
                );
            }
        }
    }

    #[test]
    fn deep_graphs_fall_back_past_the_plane_cap() {
        // Diameter 299 > 255: depths past 255 land in the second plane
        // window of the same traversal — same results from every fill.
        let g = path(300);
        let sources: Vec<NodeId> = vec![0, 150, 299];
        assert_matches_scalar(&g, &sources);
        assert_matches_scalar_w::<4>(&g, &sources);
        let n = g.num_nodes();
        let wide = MsBfs::new(n).distances(&g, &sources);
        let mut narrow = vec![vec![0u16; n]; sources.len()];
        assert!(MsBfs::new(n).fill_narrow_rows(&g, &sources, &mut narrow));
        assert_eq!(narrow[0][n - 1], 299);
        for (row, want) in narrow.iter().zip(wide.chunks(n)) {
            assert!(row.iter().zip(want).all(|(&c, &d)| c as u32 == d));
        }
        let rows = batched_compact_rows_w(&g, &sources, 1, LaneWidth::W256);
        assert!(rows.iter().all(DistRowBuf::is_narrow));
        for (row, want) in rows.iter().zip(wide.chunks(n)) {
            assert!(row.view().eq_wide(want));
        }
    }

    #[test]
    fn narrow_fills_refuse_at_u16_max_and_compact_rows_widen_per_row() {
        // 257 plane windows in one traversal, each touching a few hundred
        // of 65,537 nodes (so each decodes only the nodes it touched).
        // Source 0 reaches depth 65536: the u16 fills refuse, and its
        // compact row widens while source 32768's row stays narrow.
        let g = path(65_537);
        let n = g.num_nodes();
        let sources: Vec<NodeId> = vec![0, 32_768];
        let mut ms = MsBfs::new(n);
        let wide = ms.distances(&g, &sources);
        assert_eq!(
            (wide[n - 1], wide[n], wide[2 * n - 1]),
            (65_536, 32_768, 32_768)
        );
        let mut narrow = vec![vec![0u16; n]; 2];
        assert!(!ms.fill_narrow_rows(&g, &sources, &mut narrow));
        assert!(ms.fill_narrow_rows(&g, &sources[1..], &mut narrow[..1]));
        assert_eq!(
            narrow[0],
            wide[n..].iter().map(|&d| d as u16).collect::<Vec<_>>()
        );
        let rows = batched_compact_rows_w(&g, &sources, 2, LaneWidth::W64);
        assert!(!rows[0].is_narrow() && rows[1].is_narrow());
        for (row, want) in rows.iter().zip(wide.chunks(n)) {
            assert_eq!(row, &DistRowBuf::from_wide(want));
        }
    }

    #[test]
    fn byte_fill_matches_wide_fill_and_refuses_deep_graphs() {
        fn check<const W: usize>(g: &Graph, sources: &[NodeId])
        where
            MsBfsW<W>: MsBfsWorkspace,
        {
            let n = g.num_nodes();
            let mut ms = MsBfsW::<W>::new(n);
            let wide = ms.distances(g, sources);
            let mut bytes = vec![7u8; sources.len() * n];
            assert!(ms.distances_into_bytes(g, sources, &mut bytes));
            for (&b, &d) in bytes.iter().zip(&wide) {
                let want = if d == INFINITY { u8::MAX } else { d as u8 };
                assert_eq!(b, want, "W={W}");
            }
        }
        let g = circulant(130, &[5, 17]);
        let sources: Vec<NodeId> = (0..130u32).collect();
        check::<1>(&g, &sources[..64]);
        check::<2>(&g, &sources[..128]);
        check::<4>(&g, &sources);
        let split = GraphBuilder::from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap();
        check::<1>(&split, &[0, 3, 8]);
        // Distances up to 254 fit; 255 and beyond refuse.
        let mut ms = MsBfs::new(300);
        let mut bytes = vec![0u8; 300];
        assert!(ms.distances_into_bytes(&path(255), &[0], &mut bytes[..255]));
        assert_eq!(bytes[254], 254);
        assert!(!ms.distances_into_bytes(&path(256), &[0], &mut bytes[..256]));
        assert!(!ms.distances_into_bytes(&path(300), &[0], &mut bytes));
    }

    #[test]
    fn lane_width_parse_label_roundtrip() {
        for w in LaneWidth::ALL {
            assert_eq!(LaneWidth::parse(w.label()), Some(w));
            assert_eq!(w.lanes(), 64 * w.words());
            assert_eq!(w.to_string(), w.label());
        }
        assert_eq!(LaneWidth::parse("96"), None);
        assert_eq!(LaneWidth::default(), LaneWidth::W64);
    }
}
