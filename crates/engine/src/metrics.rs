//! Lifetime service metrics of an [`crate::Engine`].

use nav_analysis::latency::LatencySummary;
use nav_core::sampler::SamplerStats;
use nav_obs::LogHistogram;

/// Counters and a bounded latency histogram accumulated across every
/// batch an engine has served. Memory is O(1) in queries served: the
/// per-batch samples land in a fixed-size [`LogHistogram`] instead of a
/// growing vector.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Queries answered.
    pub queries: u64,
    /// Batches served.
    pub batches: u64,
    /// Routing trials executed.
    pub trials: u64,
    /// Distinct targets served warm (row already resident).
    pub warm_targets: u64,
    /// Distinct targets computed cold (MS-BFS this batch).
    pub cold_targets: u64,
    /// Total service wall-clock, milliseconds.
    pub total_ms: f64,
    /// Per-step sampler counters summed over every query's worker (all
    /// zero under the scalar backend). `row_bytes` is the total transient
    /// ball-row payload the workers allocated — each individual worker
    /// stayed under the engine's byte budget.
    pub sampler: SamplerStats,
    /// Long-range contacts suppressed by fault injection: the i.i.d.
    /// drop coin plus contacts whose node was down in the query's churn
    /// epoch. 0 when [`crate::EngineConfig::fault`] is off.
    pub dropped_links: u64,
    /// Hops where the fault-free greedy winner was down and routing fell
    /// back to a different live hop.
    pub rerouted_hops: u64,
    /// Churn-epoch changes between consecutive batches. A plain
    /// transition counter: rows stay resident across a flip.
    pub epoch_flips: u64,
    /// Per-batch wall-clock samples, milliseconds, log-bucketed.
    batch_ms: LogHistogram,
    /// Exact per-batch samples, kept only under `cfg(test)` so the
    /// conformance test can compare the histogram digest against the
    /// exact one. Production builds carry no unbounded state.
    #[cfg(test)]
    batch_ms_exact: Vec<f64>,
}

impl EngineMetrics {
    /// Records one served batch.
    pub fn record_batch(
        &mut self,
        queries: usize,
        trials: u64,
        warm: usize,
        cold: usize,
        elapsed_ms: f64,
    ) {
        self.queries += queries as u64;
        self.batches += 1;
        self.trials += trials;
        self.warm_targets += warm as u64;
        self.cold_targets += cold as u64;
        self.total_ms += elapsed_ms;
        self.batch_ms.record(elapsed_ms);
        #[cfg(test)]
        self.batch_ms_exact.push(elapsed_ms);
    }

    /// Folds one batch's summed sampler counters into the lifetime
    /// totals.
    pub fn record_sampler(&mut self, stats: &SamplerStats) {
        self.sampler.merge(stats);
    }

    /// Folds one batch's fault tallies into the lifetime totals.
    pub fn record_fault(&mut self, dropped_links: u64, rerouted_hops: u64, epoch_flips: u64) {
        self.dropped_links += dropped_links;
        self.rerouted_hops += rerouted_hops;
        self.epoch_flips += epoch_flips;
    }

    /// The per-batch latency histogram (milliseconds).
    pub fn batch_hist(&self) -> &LogHistogram {
        &self.batch_ms
    }

    /// Tail-latency digest of the per-batch service times (`None` before
    /// the first batch). `count`/`mean`/`min`/`max` are exact; the
    /// quantiles come from the histogram and carry its declared relative
    /// error ([`LogHistogram::error_factor`]).
    pub fn latency(&self) -> Option<LatencySummary> {
        self.batch_ms.summary()
    }

    /// Overall throughput in queries per second (0 before any work).
    pub fn throughput_qps(&self) -> f64 {
        if self.total_ms <= 0.0 {
            0.0
        } else {
            self.queries as f64 / (self.total_ms / 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_digests() {
        let mut m = EngineMetrics::default();
        assert!(m.latency().is_none());
        assert_eq!(m.throughput_qps(), 0.0);
        m.record_batch(100, 400, 3, 7, 50.0);
        m.record_batch(100, 400, 10, 0, 150.0);
        m.record_fault(5, 2, 1);
        m.record_fault(3, 1, 0);
        assert_eq!(m.dropped_links, 8);
        assert_eq!(m.rerouted_hops, 3);
        assert_eq!(m.epoch_flips, 1);
        assert_eq!(m.queries, 200);
        assert_eq!(m.batches, 2);
        assert_eq!(m.trials, 800);
        assert_eq!(m.warm_targets, 13);
        assert_eq!(m.cold_targets, 7);
        assert_eq!(m.batch_hist().count(), 2);
        let lat = m.latency().unwrap();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.min, 50.0);
        assert_eq!(lat.max, 150.0);
        // 200 queries in 0.2 s → 1000 qps.
        assert!((m.throughput_qps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_digest_conforms_to_exact_samples() {
        // The conformance check the ISSUE asks for: the histogram-backed
        // digest must track the exact-sample digest within the declared
        // relative-error factor on a realistic latency spread.
        let mut m = EngineMetrics::default();
        for i in 0..500u64 {
            // 0.05..≈60 ms, log-spread like a cold/warm mixture.
            let ms = 0.05 * 1.0143f64.powi(i as i32 % 500);
            m.record_batch(10, 40, 1, 1, ms);
        }
        let exact = LatencySummary::from_samples(&m.batch_ms_exact).unwrap();
        let approx = m.latency().unwrap();
        assert_eq!(approx.count, exact.count);
        assert!((approx.mean - exact.mean).abs() < 1e-9);
        assert_eq!(approx.min, exact.min);
        assert_eq!(approx.max, exact.max);
        let gamma = LogHistogram::error_factor() * 1.0001;
        for (a, e) in [
            (approx.p50, exact.p50),
            (approx.p90, exact.p90),
            (approx.p99, exact.p99),
        ] {
            assert!(a >= e / gamma && a <= e * gamma, "approx {a} vs exact {e}");
        }
    }
}
