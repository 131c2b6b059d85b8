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

use crate::{csr::Graph, NodeId, INFINITY};

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
    /// Bit-sliced depth accumulator for the distance fills: plane `p` of
    /// `planes[v]` holds, per lane, bit `p` of the lane's distance to `v`
    /// (depths `< 256`, so 8 planes). Levels OR `newly` into the planes of
    /// the depth's set bits — per-*event* word ops that scale with `W`
    /// exactly like the traversal — and one streaming decode pass at the
    /// end reassembles bytes, instead of per-discovery scalar stores.
    /// Grown lazily: only the distance fills pay for it.
    planes: Vec<[[u64; W]; 8]>,
    /// How many leading planes the previous pass may have dirtied
    /// (`⌈log₂(maxd+1)⌉`): the next pass clears only those, which on
    /// low-diameter graphs halves the per-pass clear traffic.
    dirty_planes: usize,
}

/// The historical 64-lane workspace: width-1 [`MsBfsW`].
pub type MsBfs = MsBfsW<1>;

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

/// Decodes word `i` of a node's depth planes into 64 depth bytes (lanes
/// `64 i .. 64 i + 64`). Only the first `pbits` planes can be non-zero
/// (depths `≤ maxd`), so higher planes are never read. Unreached lanes
/// decode to 0 — callers patch them from the `seen` masks.
#[inline]
fn decode_word<const W: usize>(blk: &[[u64; W]; 8], i: usize, pbits: usize) -> [u8; 64] {
    let mut out = [0u8; 64];
    for g in 0..8 {
        // Byte j of `acc` collects bit g·8+j of every plane at bit p —
        // i.e. the full depth of lane g·8+j.
        let mut acc = 0u64;
        for (p, plane) in blk.iter().enumerate().take(pbits) {
            acc |= SPREAD[(plane[i] >> (8 * g)) as usize & 0xFF] << p;
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
            planes: Vec::new(),
            dirty_planes: 0,
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
        self.levels(g, sources.len(), |v, newly, depth| {
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
    /// blocks into its per-lane visit order from here.
    fn levels<F: FnMut(NodeId, &[u64; W], u32)>(&mut self, g: &Graph, k: usize, mut blocks: F) {
        let n = g.num_nodes();
        // The lists move out of `self` so the hot loops can hold plain
        // slice bindings (no repeated field loads, no indexed re-borrows).
        let mut cur = std::mem::take(&mut self.cur_list);
        let mut nxt = std::mem::take(&mut self.next_list);
        let full = full_mask::<W>(k);
        let mut depth = 0u32;
        while !cur.is_empty() {
            // Expand, direction-optimized (Beamer-style). `seen` is stable
            // during either scan, so the bits landing in `next[v]` are
            // exactly the lanes newly discovering `v`.
            let seen = &self.seen[..n];
            let frontier = &self.frontier[..n];
            let next = &mut self.next[..n];
            if cur.len() >= n / 8 {
                // Bottom-up: the frontier covers a large fraction of the
                // graph, so pull from the (few) lanes still missing at
                // each node and stop scanning a node's neighbours as soon
                // as its missing lanes are covered. Sparse levels (long
                // thin graphs) never trigger this arm, keeping the
                // `O(active)`-per-level behaviour there. The `n / 8`
                // threshold measured flat across widths: wider blocks
                // cost more per pulled word but early-exit sooner (more
                // lanes are missing per node), so the crossover stays put.
                for vu in 0..n {
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
                    // Pull plain `OR`s in runs of 8 neighbours and test
                    // coverage once per run: a per-neighbour covered
                    // check costs more than the neighbours it skips on
                    // low-degree graphs (the common case here), while
                    // high-degree nodes still stop after the first
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
                        next[vu] = new;
                    }
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
            // Retire the old frontier before installing the new one (a
            // node can sit in both lists when different lanes reach it at
            // consecutive levels).
            for &u in &cur {
                self.frontier[u as usize] = [0; W];
            }
            depth += 1;
            for &v in &nxt {
                let vu = v as usize;
                let newly = self.next[vu];
                for (slot, &nw) in self.seen[vu].iter_mut().zip(&newly) {
                    *slot |= nw;
                }
                self.frontier[vu] = newly;
                self.next[vu] = [0; W];
                blocks(v, &newly, depth);
            }
            std::mem::swap(&mut cur, &mut nxt);
            nxt.clear();
        }
        self.cur_list = cur;
        self.next_list = nxt;
    }

    /// Runs one traversal pass recording depths into the bit-sliced
    /// `planes` instead of emitting per-lane discoveries: each level ORs
    /// its `newly` block into the planes of the depth's set bits (≤ 8
    /// word-block ORs per *node event*, so the recording cost scales with
    /// `W` exactly like the traversal — unlike per-discovery scalar
    /// stores, which cost one write per *cell* and dominate wide passes).
    /// Returns the maximum depth reached, or `None` when a level reaches
    /// depth 256 (the 8-plane cap): the planes are then partial and the
    /// caller falls back to a per-discovery fill.
    fn fill_planes(&mut self, g: &Graph, sources: &[NodeId]) -> Option<u32> {
        let n = g.num_nodes();
        self.begin(g, sources);
        if self.planes.len() < n {
            self.planes.resize(n, [[0; W]; 8]);
        }
        // Taken out of `self` for the closure (`levels` borrows the
        // traversal state mutably); restored below.
        let mut planes = std::mem::take(&mut self.planes);
        if self.dirty_planes > 0 {
            for blk in &mut planes[..n] {
                blk[..self.dirty_planes].fill([0; W]);
            }
        }
        let mut maxd = 0u32;
        let mut overflow = false;
        self.levels(g, sources.len(), |v, newly, d| {
            if d >= 256 {
                overflow = true;
                return;
            }
            maxd = d;
            let blk = &mut planes[v as usize];
            let mut db = d;
            while db != 0 {
                let plane = &mut blk[db.trailing_zeros() as usize];
                for (slot, &nw) in plane.iter_mut().zip(newly) {
                    *slot |= nw;
                }
                db &= db - 1;
            }
        });
        // An overflowed pass dirtied all 8 planes (depths up to 255 were
        // recorded before the cap hit); a clean pass dirtied the planes of
        // its depth bits. When this pass's graph is smaller than the
        // workspace, nodes beyond `n` kept their old dirt — keep the max.
        let pbits = if overflow {
            8
        } else {
            (32 - maxd.leading_zeros()) as usize
        };
        self.dirty_planes = if n == planes.len() {
            pbits
        } else {
            self.dirty_planes.max(pbits)
        };
        self.planes = planes;
        if overflow {
            None
        } else {
            Some(maxd)
        }
    }

    /// Decodes the depth planes of a finished [`MsBfsW::fill_planes`] pass
    /// into lane-major `rows` (`k × n` cells of `C`), patching unreached
    /// cells to `inf` from the `seen` masks. The transpose from node-major
    /// planes to lane-major rows runs over 64-node tiles whose decoded
    /// bytes live in a 4 KiB L1-resident buffer, so neither side streams
    /// a cold `n × k` scratch.
    fn decode_rows<C: Copy + From<u8>>(
        &self,
        n: usize,
        k: usize,
        inf: C,
        maxd: u32,
        rows: &mut [C],
    ) {
        let pbits = (32 - maxd.leading_zeros()) as usize;
        let full = full_mask::<W>(k);
        const TILE: usize = 64;
        let mut tile_buf = [[0u8; 64]; TILE];
        for i in 0..W {
            let lane_lo = i * 64;
            if lane_lo >= k {
                break;
            }
            let lanes_here = (k - lane_lo).min(64);
            let mut v0 = 0;
            while v0 < n {
                let tn = TILE.min(n - v0);
                for (t, buf) in tile_buf[..tn].iter_mut().enumerate() {
                    *buf = decode_word(&self.planes[v0 + t], i, pbits);
                }
                // Indexing `tile_buf[t][j]` by the outer loop variable is
                // the transpose itself, not an iterator in disguise.
                #[allow(clippy::needless_range_loop)]
                for j in 0..lanes_here {
                    let base = (lane_lo + j) * n + v0;
                    for (t, slot) in rows[base..base + tn].iter_mut().enumerate() {
                        *slot = C::from(tile_buf[t][j]);
                    }
                }
                v0 += tn;
            }
        }
        for (v, seen) in self.seen[..n].iter().enumerate() {
            for (i, &word) in seen.iter().enumerate() {
                let mut missing = full[i] & !word;
                while missing != 0 {
                    let lane = i * 64 + missing.trailing_zeros() as usize;
                    rows[lane * n + v] = inf;
                    missing &= missing - 1;
                }
            }
        }
    }

    /// Fills `rows` — row-major `sources.len() × g.num_nodes()` — with the
    /// BFS distances of each source's lane ([`INFINITY`] for unreached).
    ///
    /// Distances are accumulated bit-sliced (`fill_planes`) and
    /// decoded in one streaming pass, so extraction no longer costs a
    /// scalar store per (lane, node) cell; graphs of diameter ≥ 256 take
    /// the per-discovery fallback (a second traversal, but such graphs pay
    /// Θ(n · diam) traversal levels anyway).
    ///
    /// # Panics
    /// Panics if `rows.len() != sources.len() * g.num_nodes()` (in
    /// addition to [`MsBfsW::run`]'s conditions).
    pub fn distances_into(&mut self, g: &Graph, sources: &[NodeId], rows: &mut [u32]) {
        let n = g.num_nodes();
        assert_eq!(
            rows.len(),
            sources.len() * n,
            "rows buffer must be sources.len() * n"
        );
        match self.fill_planes(g, sources) {
            Some(maxd) => self.decode_rows(n, sources.len(), INFINITY, maxd, rows),
            None => {
                let ok = self.fill_rows(g, sources, rows, INFINITY, |d| d);
                debug_assert!(ok, "u32 depth cells cannot overflow");
            }
        }
    }

    /// [`MsBfsW::distances_into`] at 16-bit width: fills `rows` — row-major
    /// `sources.len() × g.num_nodes()` of `u16`, with `u16::MAX` (the
    /// narrow-storage infinity, [`crate::distance::NARROW_INFINITY`]) for
    /// unreached nodes — and returns `true` on success. Returns `false`
    /// when any finite distance reaches `u16::MAX` (diameter ≥ 65535);
    /// `rows` contents are then unspecified and the caller must fall back
    /// to the 32-bit fill. Writing the compact cells straight out of the
    /// pass halves the extraction bandwidth of wide all-pairs sweeps
    /// versus filling `u32` rows and narrowing afterwards.
    ///
    /// # Panics
    /// Panics if `rows.len() != sources.len() * g.num_nodes()` (in
    /// addition to [`MsBfsW::run`]'s conditions).
    pub fn distances_into_narrow(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        rows: &mut [u16],
    ) -> bool {
        let n = g.num_nodes();
        assert_eq!(
            rows.len(),
            sources.len() * n,
            "rows buffer must be sources.len() * n"
        );
        match self.fill_planes(g, sources) {
            Some(maxd) => {
                self.decode_rows(n, sources.len(), u16::MAX, maxd, rows);
                true
            }
            // Diameter ≥ 256 outgrows the planes but may still fit u16:
            // the per-discovery fill keeps the `false`-at-65535 contract.
            None => self.fill_rows(g, sources, rows, u16::MAX, |d| d as u16),
        }
    }

    /// [`MsBfsW::distances_into_narrow`] at 8-bit width, with `u8::MAX`
    /// for unreached nodes: a quarter of the `u32` staging for callers
    /// that only bucket distances (the ball-row builder). Returns `false`
    /// — `rows` contents unspecified — when a finite distance reaches
    /// `u8::MAX`; the caller then falls back to a wider fill.
    ///
    /// # Panics
    /// Panics if `rows.len() != sources.len() * g.num_nodes()` (in
    /// addition to [`MsBfsW::run`]'s conditions).
    pub fn distances_into_bytes(&mut self, g: &Graph, sources: &[NodeId], rows: &mut [u8]) -> bool {
        let n = g.num_nodes();
        assert_eq!(
            rows.len(),
            sources.len() * n,
            "rows buffer must be sources.len() * n"
        );
        match self.fill_planes(g, sources) {
            Some(maxd) if maxd < u8::MAX as u32 => {
                self.decode_rows(n, sources.len(), u8::MAX, maxd, rows);
                true
            }
            _ => false,
        }
    }

    /// Writes one batch's distances as *columns* `col0 .. col0 + k` of a
    /// row-major `g.num_nodes() × n_total` narrow matrix: cell
    /// `(v, col0 + lane)` gets lane's distance to `v` (`u16::MAX` when
    /// unreached). Returns `false` — buffer contents unspecified — when a
    /// finite distance reaches `u16::MAX`, exactly like
    /// [`MsBfsW::distances_into_narrow`].
    ///
    /// [`Graph`]s are invariantly undirected, so `dist(s, v) = dist(v, s)`
    /// and these cells are exactly the all-pairs entries `M[v][s]`: the
    /// inline [`crate::distance::DistanceMatrix`] fill streams each pass's
    /// decoded depths out node-major (sequential `k`-cell runs per node)
    /// and skips the lane-major transpose entirely.
    ///
    /// # Panics
    /// Panics if `out.len() != g.num_nodes() * n_total` or
    /// `col0 + sources.len() > n_total` (in addition to [`MsBfsW::run`]'s
    /// conditions).
    pub fn distances_into_columns(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        col0: usize,
        n_total: usize,
        out: &mut [u16],
    ) -> bool {
        let n = g.num_nodes();
        let k = sources.len();
        assert_eq!(out.len(), n * n_total, "out buffer must be n * n_total");
        assert!(
            col0 + k <= n_total,
            "columns {col0}..{} exceed row width {n_total}",
            col0 + k
        );
        let Some(maxd) = self.fill_planes(g, sources) else {
            return self.fill_columns_slow(g, sources, col0, n_total, out);
        };
        let pbits = (32 - maxd.leading_zeros()) as usize;
        let full = full_mask::<W>(k);
        for v in 0..n {
            let blk = &self.planes[v];
            let seen = &self.seen[v];
            let base = v * n_total + col0;
            for i in 0..W {
                let lane_lo = i * 64;
                if lane_lo >= k {
                    break;
                }
                let m = (k - lane_lo).min(64);
                let buf = decode_word(blk, i, pbits);
                for (j, slot) in out[base + lane_lo..base + lane_lo + m]
                    .iter_mut()
                    .enumerate()
                {
                    *slot = buf[j] as u16;
                }
                let mut missing = full[i] & !seen[i];
                while missing != 0 {
                    out[base + lane_lo + missing.trailing_zeros() as usize] = u16::MAX;
                    missing &= missing - 1;
                }
            }
        }
        true
    }

    /// Per-discovery fallback for [`MsBfsW::distances_into_columns`] when
    /// the depth planes overflow (diameter ≥ 256): a second traversal
    /// writing each discovery's column cell directly. Returns `false` once
    /// a depth reaches `u16::MAX`.
    fn fill_columns_slow(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        col0: usize,
        n_total: usize,
        out: &mut [u16],
    ) -> bool {
        let n = g.num_nodes();
        let k = sources.len();
        self.begin(g, sources);
        for (lane, &s) in sources.iter().enumerate() {
            out[s as usize * n_total + col0 + lane] = 0;
        }
        let mut overflow = false;
        self.levels(g, k, |v, newly, d| {
            if overflow || d >= u16::MAX as u32 {
                overflow = true;
                return;
            }
            let base = v as usize * n_total + col0;
            for (i, &word) in newly.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    out[base + i * 64 + bits.trailing_zeros() as usize] = d as u16;
                    bits &= bits - 1;
                }
            }
        });
        if overflow {
            return false;
        }
        let full = full_mask::<W>(k);
        for (v, seen) in self.seen[..n].iter().enumerate() {
            let base = v * n_total + col0;
            for (i, &word) in seen.iter().enumerate() {
                let mut missing = full[i] & !word;
                while missing != 0 {
                    out[base + i * 64 + missing.trailing_zeros() as usize] = u16::MAX;
                    missing &= missing - 1;
                }
            }
        }
        true
    }

    /// The per-discovery distance-fill fallback: one [`MsBfsW::begin`] +
    /// [`MsBfsW::levels`] pass writing each discovery's depth straight
    /// into the lane-major `rows` at cell type `C`, with `inf` doubling as
    /// the unreached sentinel **and** the exclusive depth cap. Returns
    /// `false` (partial rows, caller falls back to a wider cell) as soon
    /// as a level's depth would collide with the sentinel. Only graphs
    /// whose diameter outgrows the 8 depth planes (≥ 256) land here.
    ///
    /// `rows` is not pre-filled (it may hold stale values from a previous
    /// batch): the pass's `seen` masks say exactly which (lane, node)
    /// cells were written, so only the unreached ones get an `inf` patch —
    /// a no-op sweep on connected graphs.
    fn fill_rows<C: Copy + PartialEq>(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        rows: &mut [C],
        inf: C,
        from_depth: impl Fn(u32) -> C,
    ) -> bool {
        let n = g.num_nodes();
        let k = sources.len();
        self.begin(g, sources);
        let zero = from_depth(0);
        for (lane, &s) in sources.iter().enumerate() {
            rows[lane * n + s as usize] = zero;
        }
        let mut overflow = false;
        self.levels(g, k, |v, newly, d| {
            // Depths are sequential, so the first colliding level is
            // caught exactly; later levels just skip work on the doomed
            // buffer.
            let cell = from_depth(d);
            if overflow || cell == inf {
                overflow = true;
                return;
            }
            let vu = v as usize;
            for (i, &word) in newly.iter().enumerate() {
                let base = i * 64;
                let mut bits = word;
                while bits != 0 {
                    let lane = base + bits.trailing_zeros() as usize;
                    rows[lane * n + vu] = cell;
                    bits &= bits - 1;
                }
            }
        });
        if overflow {
            return false;
        }
        let full = full_mask::<W>(k);
        for (v, seen) in self.seen[..n].iter().enumerate() {
            for (i, &word) in seen.iter().enumerate() {
                let mut missing = full[i] & !word;
                while missing != 0 {
                    let lane = i * 64 + missing.trailing_zeros() as usize;
                    rows[lane * n + v] = inf;
                    missing &= missing - 1;
                }
            }
        }
        true
    }

    /// Owned-buffer convenience around [`MsBfsW::distances_into`].
    pub fn distances(&mut self, g: &Graph, sources: &[NodeId]) -> Vec<u32> {
        // Zero-init: `distances_into` overwrites every slot (reached ones
        // during the run, the rest via the INFINITY patch).
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

/// Per-thread reusable workspace access, implemented for each supported
/// width ([`MsBfsW<1>`], [`MsBfsW<2>`], [`MsBfsW<4>`]). Width-generic
/// batch code bounds on this trait to recycle buffers across passes the
/// way [`with_msbfs`] does at width 1.
pub trait MsBfsWorkspace: Sized {
    /// Runs `f` with this thread's reusable workspace of this width,
    /// grown to capacity `n`.
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
                    f(&mut ws)
                })
            }
        }
    };
}
msbfs_workspace!(MSBFS_WS64, 1);
msbfs_workspace!(MSBFS_WS128, 2);
msbfs_workspace!(MSBFS_WS256, 4);

/// Runs `f` with this thread's reusable width-1 [`MsBfs`] workspace,
/// grown to capacity `n`. Batched sweeps (all-pairs, the distance oracle)
/// call this once per 64-source batch, so buffers are recycled across
/// batches both inline and on `nav-par` workers.
///
/// # Panics
/// Panics if called re-entrantly from within `f` (the workspace is
/// exclusive per thread; batch loops never nest MS-BFS passes).
pub fn with_msbfs<R>(n: usize, f: impl FnOnce(&mut MsBfs) -> R) -> R {
    MsBfs::with_ws(n, f)
}

/// Fills `rows` — row-major `sources.len() × g.num_nodes()` — with the BFS
/// distance rows of `sources`: 64 lanes per [`MsBfs`] pass, passes fanned
/// out to `threads` `nav-par` workers that write disjoint stripes of
/// `rows` in place (`1` = inline). This is the one definition of the
/// batch-to-stripe layout; the all-pairs matrix and the routing engine's
/// distance oracle both build on it. [`batched_rows_into_w`] is the same
/// fill at a chosen [`LaneWidth`].
///
/// # Panics
/// Panics if `rows.len() != sources.len() * g.num_nodes()`.
pub fn batched_rows_into(g: &Graph, sources: &[NodeId], threads: usize, rows: &mut [u32]) {
    batched_rows_into_w(g, sources, threads, LaneWidth::W64, rows)
}

/// [`batched_rows_into`] at an explicit word-block width: `width.lanes()`
/// sources per MS-BFS pass. Output is **bit-identical at every width**
/// (each lane is an exact BFS); the width only changes how many sources
/// amortise one traversal.
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

pub(crate) fn batched_rows_impl_for<const W: usize>(
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
    nav_par::parallel_chunks_mut(rows, lanes * n.max(1), threads, |b, stripe| {
        MsBfsW::<W>::with_ws(n, |ms| ms.distances_into(g, batches[b], stripe));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs::Bfs, GraphBuilder};

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
        let mut base = vec![0u32; sources.len() * n];
        batched_rows_into(&g, &sources, 2, &mut base);
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
        let d = with_msbfs(5, |ms| ms.distances(&g1, &[0]));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let g2 = path(80);
        let d = with_msbfs(80, |ms| ms.distances(&g2, &[79]));
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

    fn assert_columns_match_rows_w<const W: usize>(g: &Graph, sources: &[NodeId], col0: usize) {
        let n = g.num_nodes();
        let k = sources.len();
        let n_total = col0 + k + 3;
        let mut ms = MsBfsW::<W>::new(n);
        let rows = ms.distances(g, sources);
        let mut cols = vec![7u16; n * n_total];
        assert!(ms.distances_into_columns(g, sources, col0, n_total, &mut cols));
        for v in 0..n {
            for (lane, _) in sources.iter().enumerate() {
                let want = rows[lane * n + v];
                let got = cols[v * n_total + col0 + lane];
                if want == INFINITY {
                    assert_eq!(got, u16::MAX, "W={W} v={v} lane={lane}");
                } else {
                    assert_eq!(got as u32, want, "W={W} v={v} lane={lane}");
                }
            }
        }
        // Cells outside the batch's columns are untouched.
        assert!(cols
            .chunks(n_total)
            .all(|row| row[..col0].iter().chain(&row[col0 + k..]).all(|&c| c == 7)));
    }

    #[test]
    fn column_fill_matches_row_fill() {
        let g = circulant(130, &[5, 17]);
        let sources: Vec<NodeId> = (0..64u32).map(|i| i * 2).collect();
        assert_columns_match_rows_w::<1>(&g, &sources, 5);
        let sources130: Vec<NodeId> = (0..130u32).collect();
        assert_columns_match_rows_w::<4>(&g, &sources130, 0);
    }

    #[test]
    fn column_fill_patches_unreached_cells() {
        let g = GraphBuilder::from_edges(9, [(0, 1), (1, 2), (3, 4), (5, 6), (7, 8)]).unwrap();
        let sources: Vec<NodeId> = (0..65u32).map(|i| i % 9).collect();
        assert_columns_match_rows_w::<2>(&g, &sources, 2);
    }

    #[test]
    fn deep_graphs_fall_back_past_the_plane_cap() {
        // Diameter 299 > 255: the bit-sliced planes overflow and every
        // fill takes its per-discovery fallback — same results.
        let g = path(300);
        let sources: Vec<NodeId> = vec![0, 150, 299];
        assert_matches_scalar(&g, &sources);
        assert_matches_scalar_w::<4>(&g, &sources);
        let n = g.num_nodes();
        let mut ms = MsBfs::new(n);
        let mut narrow = vec![0u16; sources.len() * n];
        assert!(ms.distances_into_narrow(&g, &sources, &mut narrow));
        assert_eq!(narrow[n - 1], 299);
        assert_columns_match_rows_w::<1>(&g, &sources, 1);
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
