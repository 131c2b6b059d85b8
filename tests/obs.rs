//! Observability-layer contracts, across crates:
//!
//! 1. **Histogram conformance** (property-based): `nav_obs::LogHistogram`
//!    quantile estimates must stay within the histogram's declared
//!    relative-error bound of the *exact* order statistics
//!    (`nav_analysis::quantile::quantile_sorted`) for every sample shape
//!    we serve — uniform, zipf-skewed, and bimodal latency populations.
//! 2. **Trace-sampler placement invariance**: which queries get traced is
//!    a pure function of `(seed, lifetime query index)` — the traced set
//!    must not move when the same stream is served with different thread
//!    counts or different batch splits.

use navigability::analysis::quantile::quantile_sorted;
use navigability::core::uniform::UniformScheme;
use navigability::engine::{Engine, EngineConfig, Query, QueryBatch};
use navigability::obs::{LogHistogram, ObsConfig, QueryTrace, TraceSampler};
use navigability::prelude::*;
use proptest::prelude::*;

/// SplitMix64 — the tests' own deterministic sample generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Latency populations with the shapes a serving engine actually emits,
/// all within the histogram's exact-coverage domain `[1e-3, 1e4]` ms.
fn samples(shape: u8, seed: u64, n: usize) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
    (0..n)
        .map(|_| match shape {
            // Uniform over three decades: 0.1..100 ms.
            0 => 0.1 + unit(&mut s) * 99.9,
            // Zipf-ish long tail: most batches fast, a heavy p99.
            1 => {
                let u = unit(&mut s).max(1e-12);
                (0.05 / u.powf(0.8)).min(9.0e3)
            }
            // Bimodal: cache-hit mode around 0.2 ms, cold mode around 40 ms.
            _ => {
                if unit(&mut s) < 0.8 {
                    0.1 + unit(&mut s) * 0.2
                } else {
                    20.0 + unit(&mut s) * 40.0
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn histogram_quantiles_conform_to_exact_order_statistics(
        shape in 0u8..3,
        seed in 0u64..10_000,
        n in 1usize..4000,
    ) {
        let samples = samples(shape, seed, n);
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        // The histogram's nearest-rank estimate must bracket the exact
        // type-7 order statistics up to the declared per-decade relative
        // error (γ): est ∈ [sorted[floor(h)]/γ, sorted[ceil(h)]·γ].
        let gamma = LogHistogram::error_factor() * 1.0001;
        for q in [0.5, 0.9, 0.99] {
            let est = h.quantile(q).expect("non-empty");
            let exact = quantile_sorted(&sorted, q);
            let pos = q * (sorted.len() - 1) as f64;
            let lo = sorted[pos.floor() as usize] / gamma;
            let hi = sorted[pos.ceil() as usize] * gamma;
            prop_assert!(
                exact >= lo && exact <= hi,
                "bracket must contain the exact quantile"
            );
            prop_assert!(
                est >= lo && est <= hi,
                "q={} est={} exact={} outside [{}, {}] (n={}, shape={})",
                q, est, exact, lo, hi, sorted.len(), shape
            );
        }
        // The exact scalars ride along unbucketed.
        prop_assert_eq!(h.count(), sorted.len() as u64);
        let exact_sum: f64 = sorted.iter().sum();
        prop_assert!((h.sum() - exact_sum).abs() <= 1e-9 * exact_sum.max(1.0));
        prop_assert_eq!(h.min(), sorted.first().copied());
        prop_assert_eq!(h.max(), sorted.last().copied());
    }

    #[test]
    fn merged_histograms_equal_bulk_recording(
        seed in 0u64..10_000,
        split in 1usize..500,
    ) {
        // merge() must be exactly associative with record(): a digest
        // merged from two halves equals the one-pass digest.
        let samples = samples(1, seed, 500);
        let split = split.min(samples.len());
        let mut whole = LogHistogram::new();
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i < split { a.record(v) } else { b.record(v) }
        }
        a.merge(&b);
        prop_assert_eq!(a.bucket_counts(), whole.bucket_counts());
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        prop_assert_eq!(a.quantile(0.99), whole.quantile(0.99));
    }

    #[test]
    fn trace_sampler_is_pure_in_seed_and_index(
        seed in 0u64..10_000,
        every in 1u64..64,
    ) {
        // The sampled set depends on (seed, index) only — recomputing
        // from a fresh sampler object with the same seed agrees, and the
        // hit rate lands near 1/every (it is a hash, not a stride).
        let s1 = TraceSampler::new(seed, every);
        let s2 = TraceSampler::new(seed, every);
        let hits: Vec<u64> = (0..4096).filter(|&i| s1.hits(i)).collect();
        let again: Vec<u64> = (0..4096).filter(|&i| s2.hits(i)).collect();
        prop_assert_eq!(&hits, &again);
        if every == 1 {
            prop_assert_eq!(hits.len(), 4096);
        } else {
            let expect = 4096.0 / every as f64;
            prop_assert!(
                (hits.len() as f64) < 4.0 * expect + 32.0,
                "{} hits for every={}", hits.len(), every
            );
        }
    }
}

/// The engine serving `queries` in `chunk`-sized batches with `threads`
/// workers and 1-in-`trace_every` tracing; returns the recorded traces.
fn traced(
    g: &Graph,
    queries: &[Query],
    chunk: usize,
    threads: usize,
    trace_every: u64,
) -> Vec<QueryTrace> {
    let mut e = Engine::new(
        g.clone(),
        Box::new(UniformScheme),
        EngineConfig {
            seed: 0xb0b,
            threads,
            cache_bytes: 1 << 20,
            obs: ObsConfig {
                stages: true,
                trace_every,
                trace_capacity: queries.len() + 1,
            },
            ..EngineConfig::default()
        },
    );
    for c in queries.chunks(chunk) {
        e.serve(&QueryBatch {
            queries: c.to_vec(),
        })
        .expect("valid queries");
    }
    e.obs_snapshot().traces
}

/// The traced (index, s, t) triples — the placement-invariant part of a
/// trace (timings and per-batch cache outcomes legitimately vary).
fn keys(traces: &[QueryTrace]) -> Vec<(u64, u32, u32)> {
    let mut k: Vec<_> = traces.iter().map(|t| (t.index, t.s, t.t)).collect();
    k.sort_unstable();
    k
}

fn query_stream(g: &Graph, count: usize) -> Vec<Query> {
    let n = g.num_nodes() as u64;
    let mut s = 0x5eed_cafe_u64;
    (0..count)
        .map(|_| Query {
            s: (splitmix64(&mut s) % n) as u32,
            t: (splitmix64(&mut s) % n) as u32,
            trials: 2,
        })
        .collect()
}

#[test]
fn traced_query_set_is_invariant_across_threads_and_batch_splits() {
    let g = navigability::gen::grid::grid2d(12, 12).expect("grid");
    let queries = query_stream(&g, 160);
    let baseline = keys(&traced(&g, &queries, 7, 1, 4));
    assert!(
        !baseline.is_empty(),
        "1-in-4 sampling over 160 queries must trace something"
    );
    // Same stream, different thread counts: identical traced set.
    for threads in [2, 4] {
        assert_eq!(
            baseline,
            keys(&traced(&g, &queries, 7, threads, 4)),
            "traced set moved at {threads} threads"
        );
    }
    // Same stream, different batch splits: identical traced set.
    for chunk in [1, 13, 160] {
        assert_eq!(
            baseline,
            keys(&traced(&g, &queries, chunk, 2, 4)),
            "traced set moved at chunk {chunk}"
        );
    }
}

#[test]
fn histogram_memory_is_bounded_however_long_the_engine_runs() {
    // The whole point of the bounded digest: one million records later,
    // the struct is the same size and the quantiles still conform.
    let mut h = LogHistogram::new();
    let mut s = 9u64;
    for _ in 0..1_000_000 {
        h.record(0.01 + unit(&mut s) * 500.0);
    }
    assert_eq!(h.count(), 1_000_000);
    assert_eq!(
        std::mem::size_of_val(&h),
        std::mem::size_of::<LogHistogram>()
    );
    let p50 = h.quantile(0.5).expect("non-empty");
    // Uniform over [0.01, 500.01]: the median must land near 250 within
    // the declared relative error (plus sampling noise).
    assert!((200.0..300.0).contains(&p50), "p50 = {p50}");
}
