//! A bounded-memory, mergeable log-bucketed latency histogram.
//!
//! [`LogHistogram`] replaces the unbounded per-batch `Vec<f64>` the engine
//! used to keep: 64 fixed buckets whose boundaries grow geometrically, so
//! memory is O(1) in samples recorded and two histograms merge by adding
//! bucket counts elementwise (the property digest aggregation needs).
//!
//! Buckets 1..=62 span [`LogHistogram::MIN_MS`] to
//! `MIN_MS * 10^`[`LogHistogram::DECADES`] (1 µs to 10 s when samples are
//! milliseconds) with per-bucket growth factor `10^(DECADES/62) ≈ 1.30`;
//! bucket 0 is the underflow bin and bucket 63 the overflow bin. A
//! quantile estimate returns the geometric midpoint of the bucket holding
//! the requested order statistic, clamped to the observed `[min, max]`, so
//! inside the covered range it is within a multiplicative factor of
//! [`LogHistogram::error_factor`] (≈ 1.14, well under one decade) of the
//! exact sample quantile.

use nav_analysis::latency::LatencySummary;

/// Number of buckets, fixed so histograms are mergeable and wire-sized.
pub const BUCKETS: usize = 64;

/// Geometric buckets between underflow (0) and overflow (63).
const GEOM: usize = BUCKETS - 2;

/// A fixed-size log-bucketed histogram of non-negative samples
/// (milliseconds on every path in this workspace, but unit-agnostic).
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0u64; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LogHistogram {
    /// Lower bound of the first geometric bucket: 1e-3 ms = 1 µs.
    pub const MIN_MS: f64 = 1e-3;

    /// Decades covered by the geometric buckets (1 µs ..= 10 s).
    pub const DECADES: f64 = 7.0;

    /// Per-bucket growth factor `10^(DECADES / 62)`.
    pub fn growth() -> f64 {
        10f64.powf(Self::DECADES / GEOM as f64)
    }

    /// Declared multiplicative quantile-error bound inside the covered
    /// range: `sqrt(growth()) ≈ 1.14`. An estimate `e` of an exact
    /// quantile `x ∈ [MIN_MS, MIN_MS * 10^DECADES]` satisfies
    /// `x / error_factor() <= e <= x * error_factor()`.
    pub fn error_factor() -> f64 {
        Self::growth().sqrt()
    }

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample value. Total: negatives, zeros, and NaN
    /// land in the underflow bucket; `+inf` in the overflow bucket.
    fn index(v: f64) -> usize {
        if v.is_nan() || v < Self::MIN_MS {
            return 0;
        }
        let per = Self::DECADES / GEOM as f64;
        let d = (v / Self::MIN_MS).log10() / per;
        if d >= GEOM as f64 {
            BUCKETS - 1
        } else {
            1 + d as usize
        }
    }

    /// Lower bound of bucket `i` (underflow reports 0, overflow the top of
    /// the covered range).
    fn lower(i: usize) -> f64 {
        match i {
            0 => 0.0,
            i if i >= BUCKETS - 1 => Self::MIN_MS * 10f64.powf(Self::DECADES),
            i => Self::MIN_MS * Self::growth().powi(i as i32 - 1),
        }
    }

    /// Records one sample. NaN is ignored (latency paths never produce
    /// one, but the histogram must stay total).
    #[inline]
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let i = Self::index(v);
        self.buckets[i] = self.buckets[i].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds `other`'s contents into `self` (elementwise bucket sum).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True before the first sample.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample (`None` when empty). Exact, tracked outside the
    /// buckets.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty). Exact, tracked outside the
    /// buckets.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw bucket counts (index 0 = underflow, 63 = overflow).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Rebuilds a histogram from wire parts. Total for any input: the
    /// count is recomputed from the buckets, an all-zero bucket array
    /// yields an empty histogram regardless of `sum`/`min`/`max`, and
    /// inconsistent scalars (NaN, `min > max`) are sanitized so every
    /// later method stays panic-free (`quantile` clamps into
    /// `[min, max]`, which requires a valid ordering).
    pub fn from_parts(buckets: [u64; BUCKETS], sum: f64, min: f64, max: f64) -> Self {
        let count = buckets.iter().fold(0u64, |a, &b| a.saturating_add(b));
        if count == 0 {
            return Self::default();
        }
        let (min, max) = if min <= max {
            (min, max)
        } else {
            (0.0, f64::MAX)
        };
        let sum = if sum.is_nan() { 0.0 } else { sum };
        LogHistogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Estimates the `q`-quantile (`q` clamped to [0, 1]; `None` when
    /// empty). Returns the geometric midpoint of the bucket holding the
    /// nearest-rank order statistic, clamped to the observed `[min, max]`,
    /// so the estimate is within [`Self::error_factor`] of the exact
    /// quantile inside the covered range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank order statistic, 0-based, like the type-7 position
        // h = q(n-1) the exact tables use.
        let k = (q * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum > k {
                let rep = Self::lower(i) * Self::growth().sqrt();
                return Some(rep.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Tail-latency digest in the shape the exact sample path produced
    /// (`None` when empty). `count`/`mean`/`min`/`max` are exact; the
    /// quantiles carry the histogram's declared relative error.
    pub fn summary(&self) -> Option<LatencySummary> {
        if self.count == 0 {
            return None;
        }
        Some(LatencySummary {
            count: self.count as usize,
            mean: self.sum / self.count as f64,
            min: self.min,
            p50: self.quantile(0.5)?,
            p90: self.quantile(0.9)?,
            p99: self.quantile(0.99)?,
            max: self.max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_sample_is_exact() {
        let mut h = LogHistogram::new();
        h.record(3.7);
        // Clamping to [min, max] collapses a one-sample histogram to the
        // exact value.
        assert_eq!(h.quantile(0.5), Some(3.7));
        assert_eq!(h.quantile(0.0), Some(3.7));
        assert_eq!(h.quantile(1.0), Some(3.7));
        let s = h.summary().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 3.7);
        assert_eq!(s.max, 3.7);
    }

    #[test]
    fn quantiles_within_declared_error() {
        let mut h = LogHistogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.01).collect();
        for &s in &samples {
            h.record(s);
        }
        let gamma = LogHistogram::error_factor() * 1.0001;
        for (q, exact) in [(0.5, 5.0), (0.9, 9.0), (0.99, 9.9)] {
            let est = h.quantile(q).unwrap();
            assert!(
                est >= exact / gamma && est <= exact * gamma,
                "q={q}: est {est} vs exact {exact} (gamma {gamma})"
            );
        }
    }

    #[test]
    fn merge_equals_bulk_record() {
        let samples: Vec<f64> = (0..500).map(|i| 0.002 * (1.01f64).powi(i)).collect();
        let mut whole = LogHistogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut merged = LogHistogram::new();
        for chunk in samples.chunks(77) {
            let mut part = LogHistogram::new();
            for &s in chunk {
                part.record(s);
            }
            merged.merge(&part);
        }
        assert_eq!(whole, merged);
    }

    #[test]
    fn out_of_range_samples_are_total() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(1e9);
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 1);
        // Quantiles stay inside the observed range even for under/overflow.
        let q = h.quantile(0.5).unwrap();
        assert!((-5.0..=1e9).contains(&q));
    }

    #[test]
    fn from_parts_is_total_and_roundtrips() {
        let mut h = LogHistogram::new();
        for i in 1..200 {
            h.record(i as f64 * 0.05);
        }
        let rt = LogHistogram::from_parts(*h.bucket_counts(), h.sum(), h.min, h.max);
        assert_eq!(h, rt);
        // All-zero buckets decode to the canonical empty histogram no
        // matter what the scalar fields claim.
        let empty = LogHistogram::from_parts([0u64; BUCKETS], 1.0, -2.0, 99.0);
        assert_eq!(empty, LogHistogram::default());
        // Adversarial counts must not panic.
        let huge = LogHistogram::from_parts([u64::MAX; BUCKETS], f64::MAX, 0.0, f64::MAX);
        assert!(huge.quantile(0.99).is_some());
        let mut merged = huge.clone();
        merged.merge(&huge);
        assert_eq!(merged.count(), u64::MAX);
    }

    #[test]
    fn summary_matches_latency_summary_shape() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let hs = h.summary().unwrap();
        let es = LatencySummary::from_samples(&samples).unwrap();
        assert_eq!(hs.count, es.count);
        assert!((hs.mean - es.mean).abs() < 1e-9);
        assert_eq!(hs.min, es.min);
        assert_eq!(hs.max, es.max);
        let gamma = LogHistogram::error_factor() * 1.0001;
        for (a, b) in [(hs.p50, es.p50), (hs.p90, es.p90), (hs.p99, es.p99)] {
            assert!(a >= b / gamma && a <= b * gamma, "{a} vs {b}");
        }
    }
}
