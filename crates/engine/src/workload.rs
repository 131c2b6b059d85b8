//! The workload-file format and the zipfian query generator.
//!
//! A workload file is a dependency-free, line-oriented description of a
//! serving session: which graph to build, how to batch, and the query
//! stream itself. `#` starts a comment; blank lines are ignored; tokens
//! are whitespace-separated. Example:
//!
//! ```text
//! nav-workload v1
//! graph gnp 4096 42        # family, approx node count, build seed
//! trials 8                 # default trials per query
//! batch 512                # queries per service batch
//! fault 0.25 3             # drop probability, churn epochs (default off)
//! query 17 999             # explicit query (optional trailing trials)
//! query 3 999 32
//! zipf 100000 1.1 7 1024   # count theta seed hot-targets
//! ```
//!
//! Files written by older versions may carry a `shards K` line. It is
//! still range-checked (`1..=255`) and then ignored: it only ever
//! labelled targets and never changed an answer.
//!
//! The `zipf` directive expands (deterministically, at parse time) into
//! `count` queries whose **targets** follow a Zipf law of exponent
//! `theta` over `hot-targets` distinct nodes — the skew that makes a
//! cross-batch row cache earn its keep — and whose sources are uniform.
//! Graph construction is *not* this crate's job: the parser yields a
//! [`GraphSpec`] and the harness (e.g. the `nav-engine` CLI in
//! `nav-bench`) maps the family name onto its generators.

use crate::batch::{Query, QueryBatch};
use nav_core::faulty::{FailurePlan, FaultConfig};
use nav_graph::NodeId;
use nav_par::rng::seeded_rng;
use rand::Rng;
use std::fmt;

/// Magic first line of a workload file.
pub const HEADER: &str = "nav-workload v1";

/// The graph a workload runs against, by family name — built by the
/// harness, not by this crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSpec {
    /// Family name (`gnp`, `grid2d`, `path`, …) — interpreted by the
    /// harness's generator table.
    pub family: String,
    /// Approximate node count.
    pub n: usize,
    /// Build seed.
    pub seed: u64,
}

/// The zipfian block of a workload, kept for reporting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZipfSpec {
    /// Number of queries generated.
    pub count: usize,
    /// Zipf exponent θ (`weight(rank r) ∝ 1/(r+1)^θ`).
    pub theta: f64,
    /// Generator seed.
    pub seed: u64,
    /// Number of distinct hot targets.
    pub hot: usize,
}

/// The fault directive of a workload: the injection knobs a replay
/// should serve under, carried by the file so fault benches replay the
/// same degraded world everywhere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// i.i.d. long-range-link drop probability, in `[0, 1]`.
    pub drop_prob: f64,
    /// Churn epochs (`0` = no churn plan — link drops only).
    pub epochs: u32,
}

impl FaultSpec {
    /// The engine fault knob this directive denotes: `epochs == 0` keeps
    /// link drops only, otherwise the standard churn plan is derived
    /// from the serving seed ([`FailurePlan::standard`]) — so every
    /// replica of the replay sees the same down-sets.
    pub fn to_config(&self, seed: u64) -> FaultConfig {
        FaultConfig {
            drop_prob: self.drop_prob,
            plan: (self.epochs > 0).then(|| FailurePlan::standard(seed, self.epochs)),
        }
    }
}

/// A parsed workload: graph spec, batching, and the fully expanded query
/// stream.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// The graph to build.
    pub graph: GraphSpec,
    /// Default trials for queries that do not carry their own count.
    pub default_trials: usize,
    /// Queries per service batch when replaying.
    pub batch_size: usize,
    /// The query stream, in order.
    pub queries: Vec<Query>,
    /// The zipf directives encountered (reporting only).
    pub zipf: Vec<ZipfSpec>,
    /// Fault injection to replay under (`None` = a fault-free serve).
    pub fault: Option<FaultSpec>,
}

impl WorkloadSpec {
    /// Splits the stream into service batches of `batch_size`.
    pub fn batches(&self) -> Vec<QueryBatch> {
        self.queries
            .chunks(self.batch_size.max(1))
            .map(|c| QueryBatch {
                queries: c.to_vec(),
            })
            .collect()
    }

    /// Distinct targets in the stream.
    pub fn distinct_targets(&self) -> usize {
        let mut t: Vec<NodeId> = self.queries.iter().map(|q| q.t).collect();
        t.sort_unstable();
        t.dedup();
        t.len()
    }
}

/// Why a workload file failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadError {
    /// The first non-comment line was not [`HEADER`].
    BadHeader,
    /// No `graph` directive before the first query.
    MissingGraph,
    /// A malformed directive, with 1-based line number and message.
    BadDirective(usize, String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::BadHeader => {
                write!(f, "workload must start with `{HEADER}`")
            }
            WorkloadError::MissingGraph => {
                write!(f, "workload needs a `graph <family> <n> <seed>` directive")
            }
            WorkloadError::BadDirective(line, msg) => {
                write!(f, "workload line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

fn bad(line: usize, msg: impl Into<String>) -> WorkloadError {
    WorkloadError::BadDirective(line, msg.into())
}

fn parse_num<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, WorkloadError> {
    tok.ok_or_else(|| bad(line, format!("missing {what}")))?
        .parse()
        .map_err(|_| bad(line, format!("unparsable {what}")))
}

/// Parses a workload file. The `zipf` directives are expanded here, so
/// the result is the exact query stream a replay will serve.
pub fn parse_workload(text: &str) -> Result<WorkloadSpec, WorkloadError> {
    let mut lines = text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        (!line.is_empty()).then_some((i + 1, line))
    });
    match lines.next() {
        Some((_, h)) if h == HEADER => {}
        _ => return Err(WorkloadError::BadHeader),
    }
    let mut graph: Option<GraphSpec> = None;
    let mut default_trials = 8usize;
    let mut batch_size = 256usize;
    let mut queries: Vec<Query> = Vec::new();
    let mut zipf: Vec<ZipfSpec> = Vec::new();
    let mut fault: Option<FaultSpec> = None;
    for (ln, line) in lines {
        let mut tok = line.split_whitespace();
        let directive = tok.next().expect("non-empty by construction");
        match directive {
            "graph" => {
                let family = tok
                    .next()
                    .ok_or_else(|| bad(ln, "missing family"))?
                    .to_string();
                let n = parse_num(tok.next(), ln, "node count")?;
                let seed = parse_num(tok.next(), ln, "graph seed")?;
                graph = Some(GraphSpec { family, n, seed });
            }
            "trials" => default_trials = parse_num(tok.next(), ln, "trial count")?,
            "batch" => {
                batch_size = parse_num(tok.next(), ln, "batch size")?;
                if batch_size == 0 {
                    return Err(bad(ln, "batch size must be positive"));
                }
            }
            "shards" => {
                let k: usize = parse_num(tok.next(), ln, "shard count")?;
                if !(1..=255).contains(&k) {
                    return Err(bad(ln, "shard count must be in 1..=255"));
                }
            }
            "fault" => {
                let drop_prob: f64 = parse_num(tok.next(), ln, "drop probability")?;
                let epochs: u32 = parse_num(tok.next(), ln, "epoch count")?;
                if !(0.0..=1.0).contains(&drop_prob) {
                    return Err(bad(ln, "drop probability must be in [0, 1]"));
                }
                fault = Some(FaultSpec { drop_prob, epochs });
            }
            "query" => {
                let g = graph.as_ref().ok_or(WorkloadError::MissingGraph)?;
                let s: NodeId = parse_num(tok.next(), ln, "source")?;
                let t: NodeId = parse_num(tok.next(), ln, "target")?;
                let trials = match tok.next() {
                    Some(tr) => tr.parse().map_err(|_| bad(ln, "unparsable trials"))?,
                    None => default_trials,
                };
                if (s as usize) >= g.n || (t as usize) >= g.n {
                    return Err(bad(ln, format!("endpoint out of range (n = {})", g.n)));
                }
                queries.push(Query { s, t, trials });
            }
            "zipf" => {
                let g = graph.as_ref().ok_or(WorkloadError::MissingGraph)?;
                let spec = ZipfSpec {
                    count: parse_num(tok.next(), ln, "query count")?,
                    theta: parse_num(tok.next(), ln, "theta")?,
                    seed: parse_num(tok.next(), ln, "zipf seed")?,
                    hot: parse_num(tok.next(), ln, "hot-target count")?,
                };
                if !spec.theta.is_finite() {
                    return Err(bad(ln, "theta must be finite"));
                }
                if g.n < 2 {
                    return Err(bad(ln, "zipf needs a graph of at least 2 nodes"));
                }
                if spec.hot == 0 || spec.hot > g.n {
                    return Err(bad(ln, format!("hot targets must be in 1..={}", g.n)));
                }
                queries.extend(zipf_queries(g.n, &spec, default_trials));
                zipf.push(spec);
            }
            other => return Err(bad(ln, format!("unknown directive `{other}`"))),
        }
        if let Some(extra) = tok.next() {
            return Err(bad(ln, format!("trailing token `{extra}`")));
        }
    }
    let graph = graph.ok_or(WorkloadError::MissingGraph)?;
    Ok(WorkloadSpec {
        graph,
        default_trials,
        batch_size,
        queries,
        zipf,
        fault,
    })
}

/// Renders a workload file (directives, not expanded queries) — what the
/// CLI's `gen` mode writes. Parsing the result reproduces the stream
/// exactly, since zipf expansion is deterministic in the spec.
pub fn render_workload(
    graph: &GraphSpec,
    default_trials: usize,
    batch_size: usize,
    zipf: &ZipfSpec,
) -> String {
    render_workload_full(graph, default_trials, batch_size, None, zipf)
}

/// [`render_workload`] plus an optional fault directive. A `fault` line
/// is only emitted when it says something (`Some`), so fault-free files
/// keep their historical bytes (pinned in `tests/workload_gen.rs`).
/// `drop_prob` renders through `{}` — the exact `f64`, not a rounded
/// display — so parsing the rendered file replays the same coins.
pub fn render_workload_full(
    graph: &GraphSpec,
    default_trials: usize,
    batch_size: usize,
    fault: Option<FaultSpec>,
    zipf: &ZipfSpec,
) -> String {
    let fault_line = match fault {
        Some(f) => format!("fault {} {}\n", f.drop_prob, f.epochs),
        None => String::new(),
    };
    format!(
        "{HEADER}\ngraph {} {} {}\ntrials {default_trials}\nbatch {batch_size}\n{fault_line}zipf {} {} {} {}\n",
        graph.family, graph.n, graph.seed, zipf.count, zipf.theta, zipf.seed, zipf.hot
    )
}

/// Expands a zipf directive into its query stream: `hot` distinct target
/// nodes drawn without replacement from a seeded shuffle of `0..n`,
/// ranked so rank `r` has weight `1/(r+1)^theta`; each query draws a
/// target from that law and a uniform source `!= target`. Deterministic
/// in `(n, spec, default_trials)`.
pub fn zipf_queries(n: usize, spec: &ZipfSpec, default_trials: usize) -> Vec<Query> {
    assert!(spec.hot >= 1 && spec.hot <= n, "hot targets must be 1..=n");
    assert!(n >= 2, "need at least two nodes for source != target");
    let mut rng = seeded_rng(spec.seed ^ 0x21bf_5eed);
    // Partial Fisher–Yates: the first `hot` entries of a seeded shuffle.
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    for i in 0..spec.hot {
        let j = rng.gen_range(i..n);
        ids.swap(i, j);
    }
    let targets = &ids[..spec.hot];
    // Cumulative zipf weights over ranks.
    let mut cum = Vec::with_capacity(spec.hot);
    let mut total = 0.0f64;
    for r in 0..spec.hot {
        total += 1.0 / ((r + 1) as f64).powf(spec.theta);
        cum.push(total);
    }
    (0..spec.count)
        .map(|_| {
            let x = rng.gen_range(0.0..total);
            let rank = cum.partition_point(|&c| c <= x).min(spec.hot - 1);
            let t = targets[rank];
            let s = loop {
                let s = rng.gen_range(0..n as NodeId);
                if s != t {
                    break s;
                }
            };
            Query {
                s,
                t,
                trials: default_trials,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
nav-workload v1
# a tiny session
graph path 64 7
trials 4
batch 16
query 0 63
query 5 63 9
zipf 100 1.1 3 8
";

    #[test]
    fn parses_sample() {
        let w = parse_workload(SAMPLE).unwrap();
        assert_eq!(
            w.graph,
            GraphSpec {
                family: "path".into(),
                n: 64,
                seed: 7
            }
        );
        assert_eq!(w.default_trials, 4);
        assert_eq!(w.batch_size, 16);
        assert_eq!(w.queries.len(), 102);
        assert_eq!(
            w.queries[0],
            Query {
                s: 0,
                t: 63,
                trials: 4
            }
        );
        assert_eq!(
            w.queries[1],
            Query {
                s: 5,
                t: 63,
                trials: 9
            }
        );
        assert_eq!(w.zipf.len(), 1);
        assert!(w.distinct_targets() <= 9);
        let batches = w.batches();
        assert_eq!(batches.len(), 7); // ceil(102 / 16)
        assert_eq!(batches[6].len(), 102 - 6 * 16);
    }

    #[test]
    fn parse_is_deterministic() {
        assert_eq!(parse_workload(SAMPLE), parse_workload(SAMPLE));
    }

    #[test]
    fn render_roundtrip() {
        let g = GraphSpec {
            family: "gnp".into(),
            n: 256,
            seed: 11,
        };
        let z = ZipfSpec {
            count: 500,
            theta: 1.25,
            seed: 9,
            hot: 32,
        };
        let text = render_workload(&g, 6, 64, &z);
        let w = parse_workload(&text).unwrap();
        assert_eq!(w.graph, g);
        assert_eq!(w.queries.len(), 500);
        assert_eq!(w.zipf, vec![z]);
        assert_eq!(w.queries, zipf_queries(256, &z, 6));
    }

    #[test]
    fn zipf_skew_is_monotone_in_rank() {
        let spec = ZipfSpec {
            count: 20_000,
            theta: 1.2,
            seed: 5,
            hot: 10,
        };
        let qs = zipf_queries(1000, &spec, 1);
        assert_eq!(qs.len(), 20_000);
        // Count hits per target, then check the hot ranks dominate.
        let mut ids: Vec<NodeId> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for q in &qs {
            assert_ne!(q.s, q.t);
            match ids.iter().position(|&t| t == q.t) {
                Some(i) => counts[i] += 1,
                None => {
                    ids.push(q.t);
                    counts.push(1);
                }
            }
        }
        assert!(ids.len() <= 10);
        let max = *counts.iter().max().unwrap();
        let sum: usize = counts.iter().sum();
        // Rank 0 carries weight 1/H ≈ 0.35 at theta=1.2, hot=10.
        assert!(max as f64 > 0.25 * sum as f64, "no head: {counts:?}");
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(parse_workload("nope"), Err(WorkloadError::BadHeader));
        assert_eq!(
            parse_workload("nav-workload v1\ntrials 2"),
            Err(WorkloadError::MissingGraph)
        );
        let e = parse_workload("nav-workload v1\ngraph path 10 1\nquery 0 10").unwrap_err();
        assert!(matches!(e, WorkloadError::BadDirective(3, _)), "{e}");
        assert!(e.to_string().contains("line 3"));
        let e = parse_workload("nav-workload v1\ngraph path 10 1\nfrobnicate").unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
        let e = parse_workload("nav-workload v1\ngraph path 10 1\nzipf 5 1.0 1 11").unwrap_err();
        assert!(e.to_string().contains("hot targets"));
        let e = parse_workload("nav-workload v1\ngraph path 10 1\nzipf 10 NaN 3 8").unwrap_err();
        assert!(matches!(e, WorkloadError::BadDirective(3, _)), "{e}");
        assert!(e.to_string().contains("theta must be finite"));
        let e = parse_workload("nav-workload v1\ngraph path 1 7\nzipf 10 1.1 3 1").unwrap_err();
        assert!(matches!(e, WorkloadError::BadDirective(3, _)), "{e}");
        assert!(e.to_string().contains("at least 2 nodes"));
        let e = parse_workload("nav-workload v1\ngraph path 10 1\nbatch 0").unwrap_err();
        assert!(e.to_string().contains("positive"));
        let e = parse_workload("nav-workload v1\ngraph path 10 1\nquery 0 1 2 3").unwrap_err();
        assert!(e.to_string().contains("trailing"));
    }

    #[test]
    fn old_shards_directive_is_range_checked_then_ignored() {
        // Older files may carry a `shards K` line: it parses to the same
        // spec as the file without it.
        let with = parse_workload("nav-workload v1\ngraph path 8 1\nshards 4\nquery 0 7\n");
        let without = parse_workload("nav-workload v1\ngraph path 8 1\nquery 0 7\n");
        assert_eq!(with.unwrap(), without.unwrap());
        // Out-of-range counts are still located errors.
        for bad_line in ["shards 0", "shards 256"] {
            let e = parse_workload(&format!("nav-workload v1\ngraph path 8 1\n{bad_line}\n"))
                .unwrap_err();
            assert!(e.to_string().contains("1..=255"), "{e}");
            assert!(e.to_string().contains("line 3"), "{e}");
        }
    }

    #[test]
    fn fault_directive_parses_renders_and_maps_to_the_engine_knob() {
        // Default is a fault-free replay.
        assert_eq!(parse_workload(SAMPLE).unwrap().fault, None);
        let w =
            parse_workload("nav-workload v1\ngraph path 8 1\nfault 0.125 3\nquery 0 7\n").unwrap();
        assert_eq!(
            w.fault,
            Some(FaultSpec {
                drop_prob: 0.125,
                epochs: 3
            })
        );
        // The engine mapping: epochs == 0 is drops-only, epochs > 0 adds
        // the standard churn plan seeded by the serving seed.
        let cfg = w.fault.unwrap().to_config(42);
        assert_eq!(cfg.drop_prob, 0.125);
        assert_eq!(cfg.plan, Some(FailurePlan::standard(42, 3)));
        let drops_only = FaultSpec {
            drop_prob: 0.5,
            epochs: 0,
        }
        .to_config(42);
        assert_eq!(drops_only.plan, None);
        // Out-of-range probabilities and malformed lines are located.
        let e = parse_workload("nav-workload v1\ngraph path 8 1\nfault 1.5 2\n").unwrap_err();
        assert!(e.to_string().contains("[0, 1]"), "{e}");
        assert!(e.to_string().contains("line 3"), "{e}");
        let e = parse_workload("nav-workload v1\ngraph path 8 1\nfault 0.1\n").unwrap_err();
        assert!(e.to_string().contains("epoch count"), "{e}");
        let e = parse_workload("nav-workload v1\ngraph path 8 1\nfault 0.1 2 9\n").unwrap_err();
        assert!(e.to_string().contains("trailing"), "{e}");
        // Rendering: the directive survives a round-trip with the exact
        // probability value, and a fault-free render keeps the
        // historical bytes.
        let g = GraphSpec {
            family: "gnp".into(),
            n: 128,
            seed: 3,
        };
        let z = ZipfSpec {
            count: 10,
            theta: 1.0,
            seed: 2,
            hot: 4,
        };
        let f = FaultSpec {
            drop_prob: 0.137,
            epochs: 5,
        };
        let text = render_workload_full(&g, 4, 32, Some(f), &z);
        assert!(text.contains("\nfault 0.137 5\n"), "{text}");
        assert_eq!(parse_workload(&text).unwrap().fault, Some(f));
        assert_eq!(
            render_workload_full(&g, 4, 32, None, &z),
            render_workload(&g, 4, 32, &z)
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let w = parse_workload("\n# hi\nnav-workload v1\ngraph path 4 1 # inline\nquery 0 3\n")
            .unwrap();
        assert_eq!(w.queries.len(), 1);
    }
}
