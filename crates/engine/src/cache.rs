//! The cross-batch distance-row cache and its admission policies.
//!
//! One distance row per routing target is the engine's whole marginal
//! cost: a row is `Θ(n)` bytes and `Θ(m)` BFS work to produce, while the
//! trials that consume it are comparatively cheap. Real query streams are
//! heavily skewed toward hot targets, so rows computed for one batch are
//! exactly what the next batch wants. [`RowCache`] keeps them, bounded by
//! a **byte** capacity rather than a row count so one knob survives graphs
//! of any size, under one of two [`AdmissionPolicy`] replacement schemes:
//!
//! * [`AdmissionPolicy::Lru`] — a strict LRU over [`DistRowBuf`] rows
//!   (compact `u16` storage whenever the graph's eccentricities fit,
//!   halving resident bytes);
//! * [`AdmissionPolicy::Segmented`] — a segmented LRU (SLRU) tuned for
//!   zipfian target skew: new rows enter a small **probation** tier and
//!   only a *re-referenced* row graduates to the **protected** tier, so a
//!   long scan of one-shot targets can no longer flush the hot head of the
//!   distribution the way it does under strict LRU.
//!
//! Rows are handed out as [`Arc`]s: eviction drops the cache's reference,
//! never a row a batch is still routing on. Distances are exact, so cache
//! state — including the policy choice — can never change an answer, only
//! its latency. `tests/engine.rs` property-tests that invariance. A row
//! is the target's full-graph distance row, valid in every churn epoch
//! (churn only restricts which hops a step may take), so rows are never
//! invalidated — only evicted under byte pressure.

use nav_graph::distance::DistRowBuf;
use nav_graph::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel for "no slot" in the intrusive recency lists.
const NIL: usize = usize::MAX;

/// Fraction of the byte capacity reserved for the protected tier under
/// [`AdmissionPolicy::Segmented`], as a percentage. The classic SLRU
/// split: most of the budget shields re-referenced rows, a thin probation
/// tier absorbs the one-shot tail.
const PROTECTED_PCT: usize = 80;

/// Replacement scheme of a [`RowCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Strict least-recently-used over one recency list.
    #[default]
    Lru,
    /// Segmented LRU: insertions land in a probation tier (20% of the
    /// byte budget); a hit promotes the row to the protected tier (80%),
    /// whose overflow demotes back to probation rather than evicting.
    /// Eviction always drains probation first, so scan traffic cannot
    /// displace the protected working set.
    Segmented,
}

impl AdmissionPolicy {
    /// Parses a CLI flag value (`lru` | `segmented`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lru" => Some(AdmissionPolicy::Lru),
            "segmented" => Some(AdmissionPolicy::Segmented),
            _ => None,
        }
    }

    /// The CLI/JSON label of the policy.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Lru => "lru",
            AdmissionPolicy::Segmented => "segmented",
        }
    }
}

/// Counter snapshot of a [`RowCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident row.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Rows inserted.
    pub insertions: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
    /// Rows rejected at admission (larger than the whole capacity).
    pub rejected: u64,
    /// Rows currently resident.
    pub resident_rows: usize,
    /// Payload bytes currently resident.
    pub resident_bytes: usize,
    /// Configured capacity in bytes.
    pub capacity_bytes: usize,
    /// Rows currently in the protected tier (0 under strict LRU).
    pub protected_rows: usize,
    /// Payload bytes currently in the protected tier (0 under strict LRU).
    pub protected_bytes: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Which recency list a slot is threaded on. Strict LRU uses only
/// [`Tier::Probation`]; the names only carry meaning under SLRU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Probation,
    Protected,
}

struct Slot {
    key: NodeId,
    row: Arc<DistRowBuf>,
    bytes: usize,
    tier: Tier,
    prev: usize,
    next: usize,
}

/// One intrusive doubly-linked recency list over the shared slot slab
/// (head = most recently used).
#[derive(Clone, Copy)]
struct RecencyList {
    head: usize,
    tail: usize,
}

impl RecencyList {
    const fn new() -> Self {
        RecencyList {
            head: NIL,
            tail: NIL,
        }
    }
}

/// A byte-bounded cache of target distance rows under a configurable
/// [`AdmissionPolicy`].
///
/// Implemented as a slot slab threaded with intrusive doubly-linked
/// recency lists (one per tier) plus a `HashMap` index — `O(1)`
/// get/insert/evict/promote, no per-operation scans, no unsafe.
pub struct RowCache {
    capacity_bytes: usize,
    policy: AdmissionPolicy,
    /// Protected-tier byte budget (0 under strict LRU).
    protected_cap: usize,
    index: HashMap<NodeId, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    probation: RecencyList,
    protected: RecencyList,
    resident_bytes: usize,
    protected_bytes: usize,
    protected_rows: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    rejected: u64,
}

impl RowCache {
    /// Creates a strict-LRU cache bounded at `capacity_bytes` of row
    /// payload. Capacity 0 is legal and means "never retain anything" —
    /// the engine degrades to per-batch recomputation but stays correct.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_policy(capacity_bytes, AdmissionPolicy::Lru)
    }

    /// Creates a cache bounded at `capacity_bytes` under `policy`.
    pub fn with_policy(capacity_bytes: usize, policy: AdmissionPolicy) -> Self {
        let protected_cap = match policy {
            AdmissionPolicy::Lru => 0,
            // Multiply before dividing (widened so `usize::MAX`-scale
            // capacities cannot overflow): `capacity / 100 * PCT` truncates
            // first, giving a 0-byte protected tier below 100 bytes and a
            // sub-1% sizing error everywhere else.
            AdmissionPolicy::Segmented => {
                ((capacity_bytes as u128 * PROTECTED_PCT as u128) / 100) as usize
            }
        };
        RowCache {
            capacity_bytes,
            policy,
            protected_cap,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            probation: RecencyList::new(),
            protected: RecencyList::new(),
            resident_bytes: 0,
            protected_bytes: 0,
            protected_rows: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            rejected: 0,
        }
    }

    /// The configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// The configured replacement policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            rejected: self.rejected,
            resident_rows: self.index.len(),
            resident_bytes: self.resident_bytes,
            capacity_bytes: self.capacity_bytes,
            protected_rows: self.protected_rows,
            protected_bytes: self.protected_bytes,
        }
    }

    /// Exports every resident row in **re-insertion order**: probation
    /// then protected, each tier coldest (LRU) first, so replaying the
    /// rows through [`RowCache::import_row`] (which pushes to the front)
    /// reproduces both tiers' recency order exactly. The `bool` is
    /// "protected". Rows stay resident — this is a read-only walk, the
    /// snapshot layer's view of cache warmth.
    pub fn export_rows(&self) -> Vec<(NodeId, Arc<DistRowBuf>, bool)> {
        let mut out = Vec::with_capacity(self.index.len());
        for (list, protected) in [(&self.probation, false), (&self.protected, true)] {
            let mut slot = list.tail;
            while slot != NIL {
                let s = &self.slots[slot];
                out.push((s.key, Arc::clone(&s.row), protected));
                slot = s.prev;
            }
        }
        out
    }

    /// Re-admits one exported row as the most recent entry of its tier
    /// (`protected` is ignored under strict LRU, where only one list
    /// exists). Same admission discipline as [`RowCache::insert`]: an
    /// over-capacity row is rejected (counted), and the cache
    /// evicts/demotes as needed so the byte bounds hold even against a
    /// snapshot taken under a larger capacity.
    pub fn import_row(&mut self, t: NodeId, row: Arc<DistRowBuf>, protected: bool) {
        let bytes = row.bytes();
        if bytes > self.capacity_bytes {
            self.rejected += 1;
            return;
        }
        if let Some(slot) = self.index.get(&t).copied() {
            self.detach(slot);
            self.index.remove(&t);
            self.free.push(slot);
        }
        let tier = if protected && self.policy == AdmissionPolicy::Segmented {
            Tier::Protected
        } else {
            Tier::Probation
        };
        while self.resident_bytes + bytes > self.capacity_bytes {
            self.evict_one();
        }
        let slot = self.alloc_slot(t, row, bytes, tier);
        self.index.insert(t, slot);
        self.resident_bytes += bytes;
        if tier == Tier::Protected {
            self.protected_bytes += bytes;
            self.protected_rows += 1;
        }
        self.push_front(slot);
        self.insertions += 1;
        self.rebalance_protected();
    }

    /// Looks up the row of target `t`. A hit promotes the row: to the
    /// front of the single list under strict LRU, into the protected tier
    /// under SLRU.
    pub fn get(&mut self, t: NodeId) -> Option<Arc<DistRowBuf>> {
        let Some(&slot) = self.index.get(&t) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.touch(slot);
        Some(Arc::clone(&self.slots[slot].row))
    }

    /// Evicts, ahead of time, the rows that inserting `count` fresh rows
    /// of `row_bytes` each would evict, so a caller can free them before
    /// it allocates the fresh rows. Fresh rows land in probation, and
    /// eviction drains probation first, so those victims are the
    /// probation tail: this stops once the rows would fit or probation is
    /// empty, and the inserts that follow evict exactly what they would
    /// have without it — provided every fresh row is admitted and at
    /// least `row_bytes` long.
    pub fn make_room(&mut self, count: usize, row_bytes: usize) {
        while self.resident_bytes + count * row_bytes > self.capacity_bytes
            && self.probation.tail != NIL
        {
            self.evict_one();
        }
    }

    /// Inserts the row of target `t`, evicting rows until it fits. A row
    /// bigger than the whole capacity is rejected (counted, not stored) —
    /// admission control, so one oversized row cannot flush the entire
    /// working set. Re-inserting a resident key replaces its row in place
    /// (keeping its tier).
    pub fn insert(&mut self, t: NodeId, row: Arc<DistRowBuf>) {
        let bytes = row.bytes();
        if bytes > self.capacity_bytes {
            self.rejected += 1;
            return;
        }
        // Uniform path for both fresh inserts and replacements: detach the
        // old slot (if any) first, so the eviction loop below can never
        // land on the row being (re)inserted.
        let tier = match self.index.get(&t).copied() {
            Some(slot) => {
                let tier = self.slots[slot].tier;
                self.detach(slot);
                self.index.remove(&t);
                self.free.push(slot);
                tier
            }
            None => Tier::Probation,
        };
        while self.resident_bytes + bytes > self.capacity_bytes {
            self.evict_one();
        }
        let slot = self.alloc_slot(t, row, bytes, tier);
        self.index.insert(t, slot);
        self.resident_bytes += bytes;
        if tier == Tier::Protected {
            self.protected_bytes += bytes;
            self.protected_rows += 1;
        }
        self.push_front(slot);
        self.insertions += 1;
        // A replacement that grew inside the protected tier can push that
        // tier over its budget; demote from its cold end.
        self.rebalance_protected();
    }

    /// Promotes a hit slot per the policy.
    fn touch(&mut self, slot: usize) {
        match self.policy {
            AdmissionPolicy::Lru => {
                self.unlink(slot);
                self.push_front(slot);
            }
            AdmissionPolicy::Segmented => {
                self.unlink(slot);
                if self.slots[slot].tier == Tier::Probation {
                    self.slots[slot].tier = Tier::Protected;
                    self.protected_bytes += self.slots[slot].bytes;
                    self.protected_rows += 1;
                }
                self.push_front(slot);
                self.rebalance_protected();
            }
        }
    }

    /// Demotes protected-tail slots to probation until the protected tier
    /// fits its byte budget. Demotion keeps rows resident — only
    /// [`Self::evict_one`] drops them — so the total byte bound is
    /// unaffected.
    fn rebalance_protected(&mut self) {
        while self.protected_bytes > self.protected_cap {
            let slot = self.protected.tail;
            debug_assert_ne!(slot, NIL, "protected bytes without protected rows");
            self.unlink(slot);
            self.slots[slot].tier = Tier::Probation;
            self.protected_bytes -= self.slots[slot].bytes;
            self.protected_rows -= 1;
            self.push_front(slot);
        }
    }

    /// Evicts one row: the probation tail when the tier is non-empty (the
    /// strict-LRU tail lives there too), otherwise the protected tail.
    fn evict_one(&mut self) {
        let slot = if self.probation.tail != NIL {
            self.probation.tail
        } else {
            self.protected.tail
        };
        debug_assert_ne!(slot, NIL, "evict called on an empty cache");
        self.detach(slot);
        let key = self.slots[slot].key;
        self.index.remove(&key);
        self.free.push(slot);
        self.evictions += 1;
    }

    /// Unlinks `slot` and releases its byte accounting (resident and, if
    /// protected, tier bytes) plus its row Arc — in-flight borrowers keep
    /// the row alive.
    fn detach(&mut self, slot: usize) {
        self.unlink(slot);
        self.resident_bytes -= self.slots[slot].bytes;
        if self.slots[slot].tier == Tier::Protected {
            self.protected_bytes -= self.slots[slot].bytes;
            self.protected_rows -= 1;
        }
        self.slots[slot].row = Arc::new(DistRowBuf::Wide(Vec::new()));
    }

    fn alloc_slot(&mut self, key: NodeId, row: Arc<DistRowBuf>, bytes: usize, tier: Tier) -> usize {
        let slot = Slot {
            key,
            row,
            bytes,
            tier,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    fn list_of(&mut self, tier: Tier) -> &mut RecencyList {
        match tier {
            Tier::Probation => &mut self.probation,
            Tier::Protected => &mut self.protected,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next, tier) = {
            let s = &self.slots[slot];
            (s.prev, s.next, s.tier)
        };
        let list = self.list_of(tier);
        if prev == NIL {
            if list.head == slot {
                list.head = next;
            }
        } else {
            self.slots[prev].next = next;
        }
        let list = self.list_of(tier);
        if next == NIL {
            if list.tail == slot {
                list.tail = prev;
            }
        } else {
            self.slots[next].prev = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        let tier = self.slots[slot].tier;
        let head = self.list_of(tier).head;
        self.slots[slot].prev = NIL;
        self.slots[slot].next = head;
        if head != NIL {
            self.slots[head].prev = slot;
        }
        let list = self.list_of(tier);
        list.head = slot;
        if list.tail == NIL {
            list.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(len: usize, narrow: bool) -> Arc<DistRowBuf> {
        Arc::new(if narrow {
            DistRowBuf::Narrow(vec![1u16; len])
        } else {
            DistRowBuf::Wide(vec![1u32; len])
        })
    }

    #[test]
    fn hit_miss_and_promotion() {
        let mut c = RowCache::new(1000);
        assert!(c.get(1).is_none());
        c.insert(1, row(10, true)); // 20 bytes
        c.insert(2, row(10, true));
        assert!(c.get(1).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 2));
        assert_eq!(s.resident_rows, 2);
        assert_eq!(s.resident_bytes, 40);
        assert_eq!((s.protected_rows, s.protected_bytes), (0, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.policy(), AdmissionPolicy::Lru);
    }

    #[test]
    fn lru_eviction_order_respects_recency() {
        // Three 20-byte rows in a 40-byte cache: inserting the third
        // evicts the least recently *used*, not the oldest inserted.
        let mut c = RowCache::new(40);
        c.insert(1, row(10, true));
        c.insert(2, row(10, true));
        assert!(c.get(1).is_some()); // 1 is now MRU
        c.insert(3, row(10, true)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_zero_rejects_everything() {
        let mut c = RowCache::new(0);
        c.insert(7, row(1, true));
        assert!(c.get(7).is_none());
        let s = c.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.resident_rows, 0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn oversized_row_rejected_without_flushing() {
        let mut c = RowCache::new(100);
        c.insert(1, row(10, true)); // 20 bytes, fits
        c.insert(2, row(200, true)); // 400 bytes > capacity: rejected
        assert!(c.get(1).is_some(), "resident row must survive rejection");
        assert!(c.get(2).is_none());
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn reinsert_replaces_and_adjusts_bytes() {
        let mut c = RowCache::new(1000);
        c.insert(1, row(10, true)); // 20 bytes
        c.insert(1, row(10, false)); // 40 bytes, same key
        let s = c.stats();
        assert_eq!(s.resident_rows, 1);
        assert_eq!(s.resident_bytes, 40);
        assert_eq!(s.insertions, 2);
        assert!(!c.get(1).unwrap().is_narrow());
    }

    #[test]
    fn growing_replacement_evicts_to_stay_within_capacity() {
        // 100-byte budget: two 20-byte rows, then key 1 grows to 90 bytes
        // — key 2 must go, and the byte bound must hold.
        let mut c = RowCache::new(100);
        c.insert(1, row(10, true)); // 20 B
        c.insert(2, row(10, true)); // 20 B
        c.insert(1, row(45, true)); // 90 B, same key
        let s = c.stats();
        assert!(s.resident_bytes <= s.capacity_bytes, "{s:?}");
        assert_eq!(s.resident_bytes, 90);
        assert_eq!(s.evictions, 1);
        assert!(c.get(2).is_none());
        assert_eq!(c.get(1).unwrap().len(), 45);
    }

    #[test]
    fn make_room_evicts_exactly_what_the_inserts_would() {
        // Each policy, a cache with promoted (SLRU-protected) rows and
        // room for fewer fresh rows than the probation tier holds, then
        // for more: making room first and inserting after must leave the
        // same rows, tiers and counters as inserting alone, also when
        // some fresh rows are longer than the room was made for.
        for policy in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
            for fresh in [2u32, 6, 9] {
                let build = || {
                    let mut c = RowCache::with_policy(200, policy);
                    for t in 0..9u32 {
                        c.insert(t, row(10, true));
                    }
                    for t in [2, 5, 7] {
                        assert!(c.get(t).is_some());
                    }
                    c
                };
                let fill = |c: &mut RowCache| {
                    for t in 100..100 + fresh {
                        c.insert(t, row(if t % 3 == 0 { 20 } else { 10 }, true));
                    }
                };
                let (mut plain, mut early) = (build(), build());
                fill(&mut plain);
                early.make_room(fresh as usize, 20);
                fill(&mut early);
                let keys = |c: &RowCache| -> Vec<(NodeId, bool)> {
                    c.export_rows().iter().map(|(t, _, p)| (*t, *p)).collect()
                };
                assert_eq!(keys(&early), keys(&plain), "{policy:?} {fresh}");
                assert_eq!(early.stats(), plain.stats(), "{policy:?} {fresh}");
            }
        }
    }

    #[test]
    fn eviction_keeps_borrowed_rows_alive() {
        let mut c = RowCache::new(20);
        c.insert(1, row(10, true));
        let borrowed = c.get(1).unwrap();
        c.insert(2, row(10, true)); // evicts 1
        assert!(c.get(1).is_none());
        assert_eq!(borrowed.len(), 10, "borrower unaffected by eviction");
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut c = RowCache::new(20);
        for t in 0..100u32 {
            c.insert(t, row(10, true));
        }
        assert_eq!(c.stats().evictions, 99);
        assert_eq!(c.stats().resident_rows, 1);
        assert!(c.slots.len() <= 2, "slab must recycle slots");
        assert!(c.get(99).is_some());
    }

    #[test]
    fn narrow_rows_charge_half() {
        let mut c = RowCache::new(10_000);
        c.insert(1, row(100, true));
        c.insert(2, row(100, false));
        assert_eq!(c.stats().resident_bytes, 200 + 400);
        assert_eq!(c.capacity_bytes(), 10_000);
    }

    #[test]
    fn policy_parse_and_label_roundtrip() {
        for p in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
            assert_eq!(AdmissionPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(AdmissionPolicy::parse("arc"), None);
    }

    #[test]
    fn segmented_hit_promotes_to_protected() {
        let mut c = RowCache::with_policy(1000, AdmissionPolicy::Segmented);
        c.insert(1, row(10, true)); // probation
        assert_eq!(c.stats().protected_rows, 0);
        assert!(c.get(1).is_some()); // promoted
        let s = c.stats();
        assert_eq!((s.protected_rows, s.protected_bytes), (1, 20));
        assert_eq!(s.resident_rows, 1);
        assert_eq!(c.policy(), AdmissionPolicy::Segmented);
    }

    #[test]
    fn segmented_scan_does_not_flush_protected_rows() {
        // A 100-byte SLRU (80 protected / 20 probation) holding two hot
        // 20-byte protected rows survives a scan of 50 one-shot targets;
        // under strict LRU the same scan flushes both.
        let hot = [1u32, 2];
        let scan = 100u32..150;
        let mut slru = RowCache::with_policy(100, AdmissionPolicy::Segmented);
        let mut lru = RowCache::with_policy(100, AdmissionPolicy::Lru);
        for c in [&mut slru, &mut lru] {
            for &t in &hot {
                c.insert(t, row(10, true));
                assert!(c.get(t).is_some()); // promote under SLRU
            }
            for t in scan.clone() {
                c.insert(t, row(10, true));
            }
        }
        for &t in &hot {
            assert!(slru.get(t).is_some(), "SLRU must keep hot row {t}");
            assert!(lru.get(t).is_none(), "strict LRU flushes hot row {t}");
        }
        assert!(slru.stats().resident_bytes <= 100);
    }

    #[test]
    fn segmented_protected_overflow_demotes_not_evicts() {
        // Protected budget is 80 of 100 bytes: promoting five 20-byte
        // rows overflows it; the cold protected tail must fall back to
        // probation (still resident), not be dropped.
        let mut c = RowCache::with_policy(100, AdmissionPolicy::Segmented);
        for t in 1..=5u32 {
            c.insert(t, row(10, true));
            assert!(c.get(t).is_some());
        }
        let s = c.stats();
        assert_eq!(s.resident_rows, 5, "demotion keeps rows resident");
        assert_eq!(s.evictions, 0);
        assert!(s.protected_bytes <= 80, "{s:?}");
        assert_eq!(s.protected_rows, 4); // one demoted back
        assert!(c.get(1).is_some(), "demoted row is still served");
    }

    #[test]
    fn segmented_replacement_keeps_tier_and_byte_bound() {
        let mut c = RowCache::with_policy(100, AdmissionPolicy::Segmented);
        c.insert(1, row(10, true)); // probation, 20 B
        assert!(c.get(1).is_some()); // protected
        c.insert(1, row(20, true)); // replacement grows to 40 B, stays protected
        let s = c.stats();
        assert_eq!(s.resident_rows, 1);
        assert_eq!(s.resident_bytes, 40);
        assert_eq!((s.protected_rows, s.protected_bytes), (1, 40));
        assert!(s.resident_bytes <= s.capacity_bytes);
    }

    #[test]
    fn segmented_eviction_drains_probation_before_protected() {
        // 100-byte budget: one promoted 20-byte row + probation fill.
        let mut c = RowCache::with_policy(100, AdmissionPolicy::Segmented);
        c.insert(1, row(10, true));
        assert!(c.get(1).is_some()); // protected
        for t in 10..14u32 {
            c.insert(t, row(10, true)); // probation now 80 B -> over budget
        }
        assert!(c.stats().resident_bytes <= 100);
        assert!(c.get(1).is_some(), "protected row outlives probation churn");
    }

    #[test]
    fn segmented_tiny_capacity_still_bounded() {
        // Capacity smaller than one protected budget row: promotion
        // demotes the row right back; the byte bound always holds.
        let mut c = RowCache::with_policy(24, AdmissionPolicy::Segmented);
        c.insert(1, row(10, true)); // 20 B in probation
        assert!(c.get(1).is_some()); // promote: 20 > floor(24*0.8)=19 -> demoted back
        let s = c.stats();
        assert_eq!(s.resident_rows, 1);
        assert_eq!(s.protected_rows, 0);
        assert!(c.get(1).is_some(), "row survives the demotion round-trip");
        assert!(c.stats().resident_bytes <= 24);
    }

    #[test]
    fn protected_cap_is_multiply_before_divide() {
        // `capacity / 100 * PCT` truncated the quotient first: every
        // capacity under 100 bytes got a 0-byte protected tier. The
        // fixed computation is floor(capacity * 80 / 100) at every
        // scale, including capacities where the product overflows usize.
        for (capacity, expected) in [
            (1usize, 0usize),
            (99, 79),
            (100, 80),
            (
                usize::MAX / 2,
                usize::MAX / 2 / 100 * 80 + (usize::MAX / 2 % 100) * 80 / 100,
            ),
        ] {
            let c = RowCache::with_policy(capacity, AdmissionPolicy::Segmented);
            assert_eq!(
                c.protected_cap, expected,
                "protected cap at capacity {capacity}"
            );
            let lru = RowCache::with_policy(capacity, AdmissionPolicy::Lru);
            assert_eq!(lru.protected_cap, 0, "LRU has no protected tier");
        }
        // The regression the truncation caused: a sub-100-byte SLRU can
        // now actually protect a row that fits its 80% share.
        let mut c = RowCache::with_policy(30, AdmissionPolicy::Segmented);
        c.insert(1, row(10, true)); // 20 B <= floor(30*0.8)=24
        assert!(c.get(1).is_some());
        assert_eq!(c.stats().protected_rows, 1, "small caches protect too");
    }

    #[test]
    fn export_import_reproduces_rows_tiers_and_recency() {
        let mut c = RowCache::with_policy(200, AdmissionPolicy::Segmented);
        for t in 1..=4u32 {
            c.insert(t, row(10, true)); // 20 B each, probation
        }
        assert!(c.get(2).is_some()); // promote 2
        assert!(c.get(3).is_some()); // promote 3 (3 is protected-MRU)
        let exported = c.export_rows();
        assert_eq!(exported.len(), 4);

        let mut r = RowCache::with_policy(200, AdmissionPolicy::Segmented);
        for (t, row, protected) in &exported {
            r.import_row(*t, Arc::clone(row), *protected);
        }
        let (a, b) = (c.stats(), r.stats());
        assert_eq!(a.resident_rows, b.resident_rows);
        assert_eq!(a.resident_bytes, b.resident_bytes);
        assert_eq!(
            (a.protected_rows, a.protected_bytes),
            (b.protected_rows, b.protected_bytes)
        );
        // Same eviction order from here on: fill probation until the
        // original probation rows (1, then 4 — 1 is colder) evict first.
        for cache in [&mut c, &mut r] {
            cache.insert(50, row(10, true));
            cache.insert(51, row(10, true));
            cache.insert(52, row(10, true));
            cache.insert(53, row(10, true));
            cache.insert(54, row(10, true)); // 9 rows x 20 B > 200 B: evict coldest probation
        }
        for t in [2u32, 3] {
            assert!(c.get(t).is_some());
            assert!(
                r.get(t).is_some(),
                "protected row {t} must survive in the restored cache"
            );
        }
        assert_eq!(
            c.get(1).is_some(),
            r.get(1).is_some(),
            "same eviction victim"
        );
        // Imports are rejected against the *importing* cache's capacity.
        let mut tiny = RowCache::new(10);
        tiny.import_row(9, row(10, true), false); // 20 B > 10 B
        assert_eq!(tiny.stats().rejected, 1);
        assert_eq!(tiny.stats().resident_rows, 0);
    }
}
