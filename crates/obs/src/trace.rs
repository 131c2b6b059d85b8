//! Sampled per-query traces.
//!
//! The sampler picks 1-in-N queries deterministically from the query's
//! lifetime RNG index — the same address every other piece of this stack
//! keys on — so the set of traced queries is identical across thread
//! counts, batch splits, and shard layouts, and a captured trace can be
//! replayed exactly. Traces land in a bounded ring buffer: memory stays
//! O(capacity) no matter how long the server runs.

/// SplitMix64 finalizer, the same mixer the engine's RNG seeding uses.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic 1-in-N query sampler keyed on the lifetime query index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSampler {
    seed: u64,
    every: u64,
}

impl TraceSampler {
    /// A sampler that traces roughly one query in `every` (0 disables
    /// tracing, 1 traces everything).
    pub fn new(seed: u64, every: u64) -> Self {
        TraceSampler { seed, every }
    }

    /// The configured sampling period.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Whether the query at lifetime RNG index `index` is traced. Pure in
    /// `(seed, index)`: the decision is identical no matter which thread,
    /// batch, or shard serves the query.
    #[inline]
    pub fn hits(&self, index: u64) -> bool {
        match self.every {
            0 => false,
            1 => true,
            n => splitmix64(self.seed ^ index).is_multiple_of(n),
        }
    }
}

/// One sampled query's record: identity, placement, and where its time
/// went.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryTrace {
    /// Lifetime RNG index of the query (`rng_base + offset`): the replay
    /// address.
    pub index: u64,
    /// Source node.
    pub s: u32,
    /// Target node.
    pub t: u32,
    /// Shard that served the query (0 on an unsharded engine).
    pub shard: u16,
    /// Whether the target's distance row was already resident.
    pub cache_hit: bool,
    /// Routing trials executed. Full width — a trace must report the
    /// query it actually served, not a clamped image of it.
    pub trials: u64,
    /// Wall-clock spent in the trials stage for this query, milliseconds.
    /// Under a lockstep sampler (the batched ball rows) a worker answers
    /// its whole chunk of the batch together, so this is the chunk's wall
    /// time, shared by every query in it.
    pub trials_ms: f64,
    /// Long-range contacts suppressed by fault injection for this query.
    /// `u64`: long churn runs overflow 32 bits, and the wire carries the
    /// full counter (protocol v4).
    pub dropped_links: u64,
    /// Hops rerouted around a down node for this query (`u64`, like
    /// [`dropped_links`](QueryTrace::dropped_links)).
    pub rerouted_hops: u64,
}

/// Bounded overwrite-oldest buffer of [`QueryTrace`] records.
#[derive(Clone, Debug, Default)]
pub struct TraceRing {
    buf: Vec<QueryTrace>,
    cap: usize,
    head: usize,
    total: u64,
}

impl TraceRing {
    /// A ring holding at most `cap` traces (0 keeps only the counter).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            buf: Vec::new(),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Appends a trace, evicting the oldest when full.
    pub fn push(&mut self, t: QueryTrace) {
        self.total = self.total.saturating_add(1);
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(t);
        } else {
            self.buf[self.head] = t;
        }
        self.head = (self.head + 1) % self.cap;
    }

    /// Lifetime count of traces recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.head..]);
            out.extend_from_slice(&self.buf[..self.head]);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(index: u64) -> QueryTrace {
        QueryTrace {
            index,
            s: 1,
            t: 2,
            shard: 0,
            cache_hit: false,
            trials: 4,
            trials_ms: 0.1,
            dropped_links: 0,
            rerouted_hops: 0,
        }
    }

    #[test]
    fn sampler_period_zero_and_one() {
        let off = TraceSampler::new(7, 0);
        let all = TraceSampler::new(7, 1);
        for i in 0..100 {
            assert!(!off.hits(i));
            assert!(all.hits(i));
        }
    }

    #[test]
    fn sampler_rate_is_roughly_one_in_n() {
        let s = TraceSampler::new(20070610, 64);
        let hits = (0..100_000u64).filter(|&i| s.hits(i)).count();
        // Expected ~1562; a generous 3x band keeps this robust.
        assert!((500..5000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn sampler_is_pure_in_seed_and_index() {
        let a = TraceSampler::new(42, 16);
        let b = TraceSampler::new(42, 16);
        let c = TraceSampler::new(43, 16);
        let picks_a: Vec<u64> = (0..4096).filter(|&i| a.hits(i)).collect();
        let picks_b: Vec<u64> = (0..4096).filter(|&i| b.hits(i)).collect();
        let picks_c: Vec<u64> = (0..4096).filter(|&i| c.hits(i)).collect();
        assert_eq!(picks_a, picks_b);
        assert_ne!(picks_a, picks_c);
        assert!(!picks_a.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = TraceRing::new(3);
        for i in 0..5 {
            r.push(trace(i));
        }
        assert_eq!(r.total(), 5);
        let idx: Vec<u64> = r.snapshot().iter().map(|t| t.index).collect();
        assert_eq!(idx, vec![2, 3, 4]);
    }

    #[test]
    fn ring_capacity_zero_counts_only() {
        let mut r = TraceRing::new(0);
        r.push(trace(9));
        assert_eq!(r.total(), 1);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn ring_partial_fill_in_order() {
        let mut r = TraceRing::new(8);
        for i in 0..3 {
            r.push(trace(i));
        }
        let idx: Vec<u64> = r.snapshot().iter().map(|t| t.index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }
}
