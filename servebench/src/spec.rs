//! The four workloads and their seeded inputs.
//!
//! Everything a run serves is generated here from the `--seed` argument
//! alone and written out as a `nav-workload v1` file, which is then parsed
//! back with the repository's own parser: the stream the benchmark serves
//! is exactly the stream `nav-engine serve FILE` replays.

use nav_core::faulty::FaultConfig;
use nav_core::sampler::SamplerMode;
use nav_engine::workload::{parse_workload, zipf_queries, FaultSpec, GraphSpec, ZipfSpec, HEADER};
use nav_engine::Query;
use nav_graph::NodeId;
use nav_par::SplitMix64;

/// Engine compute threads and server connection workers, on every workload.
pub const ENGINE_THREADS: usize = 2;
pub const SERVER_WORKERS: usize = 2;
/// The engine's default row-cache capacity.
pub const CACHE_BYTES: usize = 128 << 20;

/// Which augmentation scheme the engine serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// Uniform contacts: the Õ(√n) baseline.
    Uniform,
    /// The Theorem 4 ball scheme.
    Ball,
}

impl SchemeKind {
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Uniform => "uniform",
            SchemeKind::Ball => "ball",
        }
    }
}

/// How a run checks its answers against `nav-core`.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// Every served answer.
    Full,
    /// A seeded sample of this many served queries.
    Sample(usize),
}

/// One workload: the traffic mix and the serving configuration.
#[derive(Debug)]
pub struct Def {
    pub name: &'static str,
    pub family: &'static str,
    pub n: usize,
    pub scheme: SchemeKind,
    pub sampler: SamplerMode,
    /// Zipf exponent over the hot targets (0 = uniform).
    pub theta: f64,
    /// Distinct hot targets (`None` = every node).
    pub hot: Option<usize>,
    pub trials: usize,
    pub batch: usize,
    /// Closed-loop client connections.
    pub conns: usize,
    pub fault: Option<FaultSpec>,
    /// Serve one query per distinct target before timing starts.
    pub warmup: bool,
    /// Generated stream length; a run that outlasts it cycles the stream
    /// (with fresh RNG indices).
    pub stream: usize,
    pub check: Check,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

pub const WORKLOADS: [Def; 4] = [
    Def {
        name: "zipf-warm-tcp",
        family: "gnp",
        n: 4096,
        scheme: SchemeKind::Uniform,
        sampler: SamplerMode::Scalar,
        theta: 1.1,
        hot: Some(1024),
        trials: 4,
        batch: 64,
        conns: 2,
        fault: None,
        warmup: true,
        stream: 1 << 18,
        check: Check::Full,
        setups: 15,
    },
    Def {
        name: "scan-cold-1m",
        family: "gnp",
        n: 1_000_000,
        scheme: SchemeKind::Uniform,
        sampler: SamplerMode::Scalar,
        theta: 0.0,
        hot: None,
        trials: 2,
        batch: 32,
        conns: 1,
        fault: None,
        warmup: false,
        stream: 1 << 12,
        check: Check::Sample(24),
        setups: 3,
    },
    Def {
        name: "churn-zipf",
        family: "grid2d",
        n: 4096,
        scheme: SchemeKind::Uniform,
        sampler: SamplerMode::Scalar,
        theta: 1.1,
        hot: Some(512),
        trials: 4,
        batch: 256,
        conns: 1,
        fault: Some(FaultSpec {
            drop_prob: 0.25,
            epochs: 3,
        }),
        warmup: false,
        stream: 1 << 18,
        check: Check::Full,
        setups: 31,
    },
    Def {
        name: "ball-batched",
        family: "gnp",
        n: 4096,
        scheme: SchemeKind::Ball,
        sampler: SamplerMode::Batched,
        theta: 1.1,
        hot: Some(1024),
        trials: 4,
        batch: 64,
        conns: 1,
        fault: None,
        warmup: false,
        stream: 1 << 18,
        check: Check::Full,
        setups: 31,
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    WORKLOADS.iter().find(|d| d.name == name)
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub def: &'static Def,
    pub graph_seed: u64,
    pub engine_seed: u64,
    /// Untimed warm-up queries, RNG indices `0..warm.len()`.
    pub warm: Vec<Query>,
    /// The timed stream, RNG indices from `warm.len()` on (cycled).
    pub stream: Vec<Query>,
    /// The same inputs as a `nav-workload v1` file.
    pub text: String,
}

impl Inputs {
    /// Derives every input of `def` from `seed`.
    pub fn generate(def: &'static Def, seed: u64) -> Inputs {
        let mut mix = SplitMix64::new(seed ^ 0x5e4e_be4c);
        let graph_seed = mix.next() >> 1;
        let zipf_seed = mix.next() >> 1;
        let engine_seed = mix.next() >> 1;
        let zipf = ZipfSpec {
            count: def.stream,
            theta: def.theta,
            seed: zipf_seed,
            hot: def.hot.unwrap_or(def.n),
        };
        let stream = zipf_queries(def.n, &zipf, def.trials);
        let warm = if def.warmup {
            let mut seen = vec![false; def.n];
            stream
                .iter()
                .filter(|q| !std::mem::replace(&mut seen[q.t as usize], true))
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        let text = render(def, graph_seed, engine_seed, &warm, &zipf);
        // The file is the source of truth: serve what it parses to.
        let mut warm = parse_workload(&text)
            .expect("generated workload parses")
            .queries;
        let stream = warm.split_off(warm.len() - stream.len());
        // Hand the stream's share of the parsed buffer back before serving,
        // so it does not sit in the peak resident set.
        warm.shrink_to_fit();
        Inputs {
            def,
            graph_seed,
            engine_seed,
            warm,
            stream,
            text,
        }
    }

    /// The query with lifetime RNG index `i`.
    pub fn query(&self, i: u64) -> Query {
        let w = self.warm.len() as u64;
        if i < w {
            self.warm[i as usize]
        } else {
            self.stream[((i - w) % self.stream.len() as u64) as usize]
        }
    }

    /// The `len` queries from RNG index `base` on.
    pub fn slice(&self, base: u64, len: usize) -> Vec<Query> {
        (base..base + len as u64).map(|i| self.query(i)).collect()
    }

    /// RNG index of timed batch `k`.
    pub fn timed_base(&self, k: u64) -> u64 {
        self.warm.len() as u64 + k * self.def.batch as u64
    }

    pub fn graph_spec(&self) -> GraphSpec {
        GraphSpec {
            family: self.def.family.into(),
            n: self.def.n,
            seed: self.graph_seed,
        }
    }

    /// The engine's fault knob.
    pub fn fault(&self) -> FaultConfig {
        self.def
            .fault
            .map(|f| f.to_config(self.engine_seed))
            .unwrap_or_default()
    }

    /// Distinct targets of the whole input.
    pub fn targets(&self) -> Vec<NodeId> {
        let mut t: Vec<NodeId> = self.warm.iter().chain(&self.stream).map(|q| q.t).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

fn render(def: &Def, graph_seed: u64, engine_seed: u64, warm: &[Query], zipf: &ZipfSpec) -> String {
    let mut out = format!(
        "{HEADER}\n# servebench workload {name}: queries past the end cycle with fresh RNG indices.\n\
         # re-drive: nav-engine serve FILE --seed {engine_seed} --threads {ENGINE_THREADS} --cache-mb {mb} --scheme {scheme} --sampler {sampler}\n\
         graph {family} {n} {graph_seed}\ntrials {trials}\nbatch {batch}\n",
        name = def.name,
        mb = CACHE_BYTES >> 20,
        scheme = def.scheme.label(),
        sampler = def.sampler.label(),
        family = def.family,
        n = def.n,
        trials = def.trials,
        batch = def.batch,
    );
    if let Some(f) = def.fault {
        out.push_str(&format!("fault {} {}\n", f.drop_prob, f.epochs));
    }
    if !warm.is_empty() {
        out.push_str("# untimed warm-up: one query per distinct target\n");
        for q in warm {
            out.push_str(&format!("query {} {}\n", q.s, q.t));
        }
    }
    out.push_str(&format!(
        "zipf {} {} {} {}\n",
        zipf.count, zipf.theta, zipf.seed, zipf.hot
    ));
    out
}
