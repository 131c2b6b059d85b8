//! Shared measurement helpers.
//!
//! Two halves: the sweep-point [`measure`] behind the experiment tables,
//! and the core every `BENCH_*.json` emitter is built on — `fms` and
//! `bench_header` for rendering, `zipf_stream` and `replay` for serving a
//! query stream in-process, `reference` and `assert_same_answers` for the
//! bit-identity gate against [`run_trials`], and [`parse_bench_args`]
//! plus [`emit_bench`] for the command lines that write the files.

use crate::ExpConfig;
use nav_core::sampler::SamplerMode;
use nav_core::scheme::AugmentationScheme;
use nav_core::trial::{
    extremal_pairs_with_distance, random_pairs, run_trials, PairStats, TrialConfig,
};
use nav_engine::workload::{zipf_queries, ZipfSpec};
use nav_engine::{Engine, Query, QueryBatch};
use nav_graph::msbfs::LaneWidth;
use nav_graph::Graph;
use nav_par::rng::seeded_rng;
use std::time::Instant;

/// One sweep-point measurement.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Instance size (nodes).
    pub n: usize,
    /// Greedy-diameter estimate: max of per-pair mean steps.
    pub max_mean: f64,
    /// Mean of per-pair mean steps.
    pub grand_mean: f64,
    /// Graph diameter proxy (distance of the extremal pair).
    pub diameter: u32,
}

/// Measures a scheme on a graph: extremal pairs (both directions) plus a
/// few random pairs; returns the aggregate point.
pub fn measure(
    g: &Graph,
    scheme: &(impl AugmentationScheme + ?Sized),
    cfg: &ExpConfig,
    tag: &str,
) -> Point {
    let seed = cfg.seed_for(tag, g.num_nodes());
    // The double sweep behind the extremal pairs already measured their
    // distance — reuse it rather than re-running a BFS.
    let (mut pairs, diameter) = extremal_pairs_with_distance(g);
    let mut rng = seeded_rng(seed ^ 0x7a17);
    pairs.extend(random_pairs(g, cfg.random_pairs(), &mut rng));
    let tc = TrialConfig {
        trials_per_pair: cfg.trials(),
        seed,
        threads: cfg.threads,
        sampler: cfg.sampler,
        width: cfg.width,
    };
    let result = run_trials(g, scheme, &pairs, &tc).expect("valid pairs");
    assert_eq!(result.failures(), 0, "routing failures on {tag}");
    Point {
        n: g.num_nodes(),
        max_mean: result.max_pair_mean(),
        grand_mean: result.grand_mean(),
        diameter,
    }
}

/// A power law `steps = C·n^γ` through sweep points (using the
/// greedy-diameter estimate).
fn fit(points: &[Point]) -> Option<nav_analysis::fit::PowerLawFit> {
    let data: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.n as f64, p.max_mean.max(1e-9)))
        .collect();
    nav_analysis::fit::fit_power_law(&data)
}

/// Fits a power law through sweep points and renders `γ (R²)` for tables.
pub fn fit_summary(points: &[Point]) -> String {
    fit(points).map_or("n/a".into(), |f| {
        format!("γ={:.3} (R²={:.3})", f.exponent, f.r2)
    })
}

/// The fitted exponent alone (for assertions and summary rows).
pub fn fitted_exponent(points: &[Point]) -> Option<f64> {
    fit(points).map(|f| f.exponent)
}

/// A measured float as every `BENCH_*.json` renders it: three decimals.
pub(crate) fn fms(v: f64) -> String {
    format!("{v:.3}")
}

/// Opens a `BENCH_*.json` document: the brace plus the five keys every
/// baseline starts with — `schema`, `mode`, `seed`, `threads` and `host`.
/// Host metadata keeps baselines from different machines (a 1-core CI
/// container vs a many-core box) distinguishable at a glance.
pub(crate) fn bench_header(schema: &str, cfg: &ExpConfig) -> String {
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"mode\": \"{}\",\n  \"seed\": {},\n  \"threads\": {},\n  \"host\": {},\n",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads,
        nav_par::HostMeta::current().to_json()
    )
}

/// The `graph` line of a baseline: family, nodes, edges, mean degree.
pub(crate) fn graph_json(family: &str, g: &Graph) -> String {
    format!(
        "  \"graph\": {{\"family\": \"{family}\", \"n\": {}, \"m\": {}, \"avg_degree\": {}}},\n",
        g.num_nodes(),
        g.num_edges(),
        fms(g.avg_degree())
    )
}

/// `queries` cut into serving batches of `size`.
pub(crate) fn batches(queries: &[Query], size: usize) -> Vec<QueryBatch> {
    queries
        .chunks(size.max(1))
        .map(|c| QueryBatch {
            queries: c.to_vec(),
        })
        .collect()
}

/// A zipfian query stream over `n` nodes, `trials` per query: the
/// queries, their batches of `batch`, and the number of distinct targets
/// (the working set a warm cache must hold).
pub(crate) fn zipf_stream(
    n: usize,
    zipf: &ZipfSpec,
    trials: usize,
    batch: usize,
) -> (Vec<Query>, Vec<QueryBatch>, usize) {
    let queries = zipf_queries(n, zipf, trials);
    let mut targets: Vec<_> = queries.iter().map(|q| q.t).collect();
    targets.sort_unstable();
    targets.dedup();
    let batches = batches(&queries, batch);
    (queries, batches, targets.len())
}

/// Cache bytes for a working set of `targets` rows over `n` nodes:
/// compact rows are 2 bytes per node, ×2 headroom, at least 1 MiB.
pub(crate) fn working_set_bytes(targets: usize, n: usize) -> usize {
    (targets * n * 4).max(1 << 20)
}

/// Serves `batches` in order in-process, query `i` of the stream on RNG
/// index `base + i` (the engine's lifetime counter is not advanced).
/// Returns the concatenated answers, the per-batch service times in ms
/// (the engine itself only keeps a bounded histogram of these) and the
/// wall-clock of the whole replay in ms.
pub(crate) fn replay(
    engine: &mut Engine,
    batches: &[QueryBatch],
    base: u64,
    sampler: SamplerMode,
) -> (Vec<PairStats>, Vec<f64>, f64) {
    let t0 = Instant::now();
    let mut answers = Vec::new();
    let mut batch_ms = Vec::with_capacity(batches.len());
    let mut base = base;
    for b in batches {
        let r = engine
            .serve_at(b, base, sampler)
            .expect("workload validated");
        base += b.len() as u64;
        batch_ms.push(r.elapsed_ms);
        answers.extend(r.answers);
    }
    (answers, batch_ms, t0.elapsed().as_secs_f64() * 1e3)
}

/// The reference answers for a query stream: one [`run_trials`] over its
/// `(s, t)` pairs, pair `i` on RNG index `i` — what an engine replaying
/// the stream from RNG base 0 must reproduce bit for bit.
///
/// # Panics
/// Panics if the queries disagree on their trial count or name an
/// endpoint outside `g`.
pub(crate) fn reference(
    g: &Graph,
    scheme: &(impl AugmentationScheme + ?Sized),
    queries: &[Query],
    seed: u64,
    threads: usize,
    sampler: SamplerMode,
    width: LaneWidth,
) -> Vec<PairStats> {
    let trials = queries.first().map_or(0, |q| q.trials);
    assert!(
        queries.iter().all(|q| q.trials == trials),
        "a reference stream needs one trial count"
    );
    let pairs: Vec<_> = queries.iter().map(|q| (q.s, q.t)).collect();
    let tc = TrialConfig {
        trials_per_pair: trials,
        seed,
        threads,
        sampler,
        width,
    };
    run_trials(g, scheme, &pairs, &tc)
        .expect("valid pairs")
        .pairs
}

/// The bit-identity gate of every emitter: `answers` must equal
/// `reference` answer for answer, floats compared by bit pattern
/// ([`PairStats::bits_eq`]).
///
/// # Panics
/// Panics, naming `label` (emitter and leg), on a length mismatch or the
/// first differing answer.
pub(crate) fn assert_same_answers(label: &str, answers: &[PairStats], reference: &[PairStats]) {
    assert_eq!(
        answers.len(),
        reference.len(),
        "{label}: answer count differs from the reference"
    );
    if let Some(i) = answers
        .iter()
        .zip(reference)
        .position(|(a, b)| !a.bits_eq(b))
    {
        panic!(
            "{label}: answer {i} diverged from the reference ({:?} vs {:?})",
            answers[i], reference[i]
        );
    }
}

/// The usage of every bench command's flags.
pub const BENCH_USAGE: &str = "[PATH] [--quick] [--threads N] [--seed S]";

/// Parses a bench command's arguments, [`BENCH_USAGE`]: an optional
/// output path (default `default_path`), `--quick`, `--threads N` and
/// `--seed S`. Anything else is an error naming the argument.
pub fn parse_bench_args(
    args: impl IntoIterator<Item = String>,
    default_path: &str,
) -> Result<(ExpConfig, String), String> {
    let mut cfg = ExpConfig::default();
    let mut path: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--threads" => cfg.threads = number(&arg, args.next())?,
            "--seed" => cfg.seed = number(&arg, args.next())?,
            other if path.is_none() && !other.starts_with("--") => path = Some(arg),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((cfg, path.unwrap_or_else(|| default_path.to_string())))
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a number"))
}

/// Renders one baseline and writes it: logs the configuration under
/// `[label]`, runs `render` (whose gates may panic), writes the JSON to
/// `path`, prints it, and reports the elapsed time.
pub fn emit_bench(label: &str, path: &str, cfg: &ExpConfig, render: fn(&ExpConfig) -> String) {
    eprintln!(
        "[{label}] mode={} seed={} threads={}",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads
    );
    let start = Instant::now();
    let json = render(cfg);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    print!("{json}");
    eprintln!("[{label}] -> {path} in {:.1?}", start.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use nav_core::uniform::{NoAugmentation, UniformScheme};

    fn quick_cfg() -> ExpConfig {
        ExpConfig {
            quick: true,
            seed: 1,
            threads: 2,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn measure_no_augmentation_equals_diameter() {
        let g = Workload::Path.build(100, 1);
        let p = measure(&g, &NoAugmentation, &quick_cfg(), "t");
        assert_eq!(p.max_mean, 99.0);
        assert_eq!(p.diameter, 99);
        assert_eq!(p.n, 100);
    }

    #[test]
    fn measure_uniform_below_diameter() {
        let g = Workload::Path.build(400, 1);
        let p = measure(&g, &UniformScheme, &quick_cfg(), "t");
        assert!(p.max_mean < 399.0);
        assert!(p.grand_mean <= p.max_mean);
    }

    fn answers() -> Vec<PairStats> {
        (0..3)
            .map(|i| PairStats {
                s: i,
                t: i + 1,
                dist: 1,
                mean_steps: 1.0 / 3.0 + f64::from(i),
                ..PairStats::default()
            })
            .collect()
    }

    #[test]
    fn same_answers_pass_the_gate() {
        assert_same_answers("test: identical", &answers(), &answers());
    }

    #[test]
    #[should_panic(expected = "test: one ulp")]
    fn one_ulp_fails_the_gate_with_its_label() {
        let mut off = answers();
        off[1].mean_steps = f64::from_bits(off[1].mean_steps.to_bits() + 1);
        assert_same_answers("test: one ulp", &off, &answers());
    }

    #[test]
    #[should_panic(expected = "test: short")]
    fn length_mismatch_fails_the_gate_with_its_label() {
        assert_same_answers("test: short", &answers()[..2], &answers());
    }

    #[test]
    fn header_emits_the_five_keys_in_order() {
        let header = bench_header("nav-bench-test/v1", &quick_cfg());
        let keys: Vec<&str> = header
            .lines()
            .skip(1)
            .map(|l| l.trim_start().split(':').next().unwrap())
            .collect();
        assert_eq!(
            keys,
            [
                "\"schema\"",
                "\"mode\"",
                "\"seed\"",
                "\"threads\"",
                "\"host\""
            ]
        );
        assert!(header.starts_with("{\n  \"schema\": \"nav-bench-test/v1\",\n  \"mode\": \"quick\",\n  \"seed\": 1,\n  \"threads\": 2,\n"));
        assert!(header.ends_with("},\n"), "{header}");
    }

    fn parse(args: &[&str]) -> Result<(ExpConfig, String), String> {
        parse_bench_args(args.iter().map(|a| a.to_string()), "BENCH_test.json")
    }

    #[test]
    fn bench_parser_defaults_and_positional_path() {
        let (cfg, path) = parse(&[]).unwrap();
        assert_eq!(path, "BENCH_test.json");
        assert!(!cfg.quick);
        assert_eq!(cfg.seed, ExpConfig::default().seed);
        let (cfg, path) = parse(&["out.json", "--quick"]).unwrap();
        assert_eq!(path, "out.json");
        assert!(cfg.quick);
        let (cfg, path) = parse(&["--threads", "3", "--seed", "17", "x.json"]).unwrap();
        assert_eq!((cfg.threads, cfg.seed, path.as_str()), (3, 17, "x.json"));
    }

    #[test]
    fn bench_parser_refuses_what_it_does_not_know() {
        assert_eq!(
            parse(&["a.json", "b.json"]).unwrap_err(),
            "unknown argument: b.json"
        );
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            "unknown argument: --bogus"
        );
        assert_eq!(
            parse(&["--width", "256"]).unwrap_err(),
            "unknown argument: --width"
        );
        assert_eq!(
            parse(&["--threads", "many"]).unwrap_err(),
            "--threads needs a number"
        );
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a number");
    }

    #[test]
    fn fit_summary_renders() {
        let pts = vec![
            Point {
                n: 256,
                max_mean: 16.0,
                grand_mean: 10.0,
                diameter: 255,
            },
            Point {
                n: 1024,
                max_mean: 32.0,
                grand_mean: 20.0,
                diameter: 1023,
            },
            Point {
                n: 4096,
                max_mean: 64.0,
                grand_mean: 40.0,
                diameter: 4095,
            },
        ];
        let s = fit_summary(&pts);
        assert!(s.contains("γ=0.500"), "{s}");
        assert!((fitted_exponent(&pts).unwrap() - 0.5).abs() < 1e-9);
    }
}
