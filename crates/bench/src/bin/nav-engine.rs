//! The `nav-engine` CLI: the serving subsystem as a command.
//!
//! ```text
//! # replay a workload file through a persistent engine
//! cargo run -p nav-bench --release --bin nav-engine -- serve FILE \
//!     [--threads N] [--seed S] [--cache-mb M] [--scheme uniform|ball|ball-realized|none] \
//!     [--sampler scalar|batched|ball-realized] [--json PATH]
//!
//! # write a zipfian workload file
//! cargo run -p nav-bench --release --bin nav-engine -- gen FILE \
//!     [--family gnp] [--n 4096] [--graph-seed 42] [--queries 100000] \
//!     [--theta 1.1] [--hot 1024] [--zipf-seed 7] [--trials 8] [--batch 512]
//!
//! # serve a workload's graph over TCP, then replay the workload against it
//! cargo run -p nav-bench --release --bin nav-engine -- serve-tcp FILE --addr 127.0.0.1:4777 \
//!     [--threads N] [--seed S] [--cache-mb M] [--scheme NAME] [--admission lru|segmented] [--workers W]
//! cargo run -p nav-bench --release --bin nav-engine -- bench-tcp FILE --addr 127.0.0.1:4777 [--json PATH]
//!
//! # ask a running serve-tcp for its ops snapshot (counters, per-stage
//! # latency histograms, sampled query traces) as /metrics text or JSON
//! cargo run -p nav-bench --release --bin nav-engine -- stats 127.0.0.1:4777 [--handle H] [--json]
//!
//! # emit a BENCH_*.json baseline: BENCH_serve.json (cold vs warm cache),
//! # BENCH_net.json (loopback wire, self-hosted), BENCH_scale.json (exact
//! # rows at n = 10^6) or BENCH_fault.json (link drops + node churn).
//! # All four share one parser: PATH defaults to the checked-in file,
//! # --quick is the CI-sized smoke (n = 10^5 for scale-bench)
//! cargo run -p nav-bench --release --bin nav-engine -- --bench-json [PATH] [--quick] [--threads N] [--seed S]
//! cargo run -p nav-bench --release --bin nav-engine -- bench-tcp --bench-json [PATH] [--quick] [--threads N] [--seed S]
//! cargo run -p nav-bench --release --bin nav-engine -- scale-bench [PATH] [--quick] [--threads N] [--seed S]
//! cargo run -p nav-bench --release --bin nav-engine -- chaos-bench [PATH] [--quick] [--threads N] [--seed S]
//!
//! # durability: capture a running server's state, restore a server from
//! # it, and re-drive a recorded traffic log checking bit-identity
//! cargo run -p nav-bench --release --bin nav-engine -- snapshot 127.0.0.1:4777 state.navs [--handle H]
//! cargo run -p nav-bench --release --bin nav-engine -- serve-tcp --restore state.navs --addr 127.0.0.1:4777
//! cargo run -p nav-bench --release --bin nav-engine -- serve-tcp FILE --record traffic.navr ...
//! cargo run -p nav-bench --release --bin nav-engine -- replay traffic.navr 127.0.0.1:4777
//! ```
//!
//! The serving commands also take `--drop-p P` (each long-range lookup
//! fails i.i.d. with probability `P`) and `--fault-epochs E` (`E` epochs
//! of seeded node churn, 1024 queries / 5% of nodes down each); either
//! flag overrides the workload file's `fault` directive. Faulty answers
//! stay bit-identical across threads, cache sizes and batch splits —
//! failure injection is part of the determinism contract.

use nav_bench::faultjson::render_fault_bench;
use nav_bench::measure::{emit_bench, parse_bench_args, BENCH_USAGE};
use nav_bench::netjson::render_net_bench;
use nav_bench::scalejson::render_scale_bench;
use nav_bench::servejson::render_serve_bench;
use nav_bench::workloads::Workload;
use nav_bench::ExpConfig;
use nav_core::ball::BallScheme;
use nav_core::faulty::FaultConfig;
use nav_core::sampler::SamplerMode;
use nav_core::scheme::AugmentationScheme;
use nav_core::uniform::{NoAugmentation, UniformScheme};
use nav_engine::workload::{
    parse_workload, render_workload, FaultSpec, GraphSpec, WorkloadSpec, ZipfSpec,
};
use nav_engine::{AdmissionPolicy, Engine, EngineConfig};
use nav_graph::msbfs::LaneWidth;
use nav_graph::Graph;
use nav_net::{Frame, MetricsSnapshot, NetClient, NetConfig, NetError, NetServer};
use nav_store::Snapshot;

/// Prints a formatted message and exits with the code: 2 for bad input,
/// 1 for a failure at run time.
macro_rules! die {
    ($code:expr, $($msg:tt)+) => {{
        eprintln!($($msg)+);
        std::process::exit($code)
    }};
}

fn family_graph(spec: &GraphSpec) -> Graph {
    let family = match spec.family.as_str() {
        "path" => Workload::Path,
        "grid2d" => Workload::Grid2d,
        "random-tree" => Workload::RandomTree,
        "gnp" => Workload::Gnp,
        "lollipop" => Workload::Lollipop,
        "comb" => Workload::Comb,
        other => die!(
            2,
            "unknown graph family `{other}` (path|grid2d|random-tree|gnp|lollipop|comb)"
        ),
    };
    family.build(spec.n, spec.seed)
}

fn scheme_for(
    name: &str,
    g: &Graph,
    seed: u64,
    threads: usize,
) -> Box<dyn AugmentationScheme + Send> {
    match name {
        "uniform" => Box::new(UniformScheme),
        "ball" => Box::new(BallScheme::new(g)),
        // One fixed joint draw of every node's ball-scheme contact,
        // realized 64 centres per MS-BFS pass — the deployed-overlay view.
        "ball-realized" => Box::new(BallScheme::new(g).realize_batched(g, seed, threads)),
        "none" => Box::new(NoAugmentation),
        other => die!(
            2,
            "unknown scheme `{other}` (uniform|ball|ball-realized|none)"
        ),
    }
}

/// An engine over the named scheme — the shared construction of `serve`
/// and `serve-tcp`.
fn build_engine(g: Graph, scheme_name: &str, cfg: EngineConfig) -> Engine {
    let scheme = scheme_for(scheme_name, &g, cfg.seed, cfg.threads);
    Engine::new(g, scheme, cfg)
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The next argument, or exit 2 with `need` (e.g. "--json needs a path").
fn expect_arg(args: &mut impl Iterator<Item = String>, need: &str) -> String {
    args.next().unwrap_or_else(|| die!(2, "{need}"))
}

fn expect_num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die!(2, "{flag} needs a number"))
}

/// Resolves a serving command's fault injection: `--drop-p` /
/// `--fault-epochs` override the workload file's `fault` directive
/// field-by-field; with neither flag nor directive, serving is
/// fault-free. The churn plan derives from the serving seed
/// ([`nav_core::faulty::FailurePlan::standard`]), so two replicas
/// started with the same seed agree on every epoch's down set.
fn resolve_fault(
    drop_p: Option<f64>,
    epochs: Option<u32>,
    spec_fault: Option<FaultSpec>,
    seed: u64,
) -> FaultConfig {
    let spec = match (drop_p, epochs) {
        (None, None) => spec_fault,
        (dp, ep) => {
            let base = spec_fault.unwrap_or(FaultSpec {
                drop_prob: 0.0,
                epochs: 0,
            });
            Some(FaultSpec {
                drop_prob: dp.unwrap_or(base.drop_prob),
                epochs: ep.unwrap_or(base.epochs),
            })
        }
    };
    let Some(spec) = spec else {
        return FaultConfig::default();
    };
    if !(0.0..=1.0).contains(&spec.drop_prob) {
        die!(2, "--drop-p must be in [0, 1], got {}", spec.drop_prob);
    }
    spec.to_config(seed)
}

/// Reads and decodes a snapshot file, restoring a serving engine from it
/// (exiting with a message on any failure). The snapshot carries
/// everything answer-determining — graph, scheme, seed, cache, faults —
/// plus the counters and rows, so only the answer-invisible
/// knobs (threads, tracing) come from `cfg`.
fn restore_engine(path: &str, cfg: &EngineConfig) -> Engine {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die!(2, "reading {path}: {e}"));
    let snap = Snapshot::decode(&bytes).unwrap_or_else(|e| die!(2, "{path}: {e}"));
    let engine = snap
        .restore(cfg.threads, cfg.obs)
        .unwrap_or_else(|e| die!(2, "{path}: restore failed: {e}"));
    eprintln!(
        "[nav-engine] restored {path}: n={} seed={} served={} resident rows={}",
        snap.num_nodes,
        snap.seed,
        snap.state.served,
        snap.state.rows.len()
    );
    engine
}

/// Parses `--width 64|128|256` (MS-BFS lanes per word block).
fn expect_width(args: &mut impl Iterator<Item = String>) -> LaneWidth {
    let value = expect_arg(args, "--width needs 64|128|256");
    LaneWidth::parse(&value).unwrap_or_else(|| die!(2, "unknown lane width `{value}` (64|128|256)"))
}

/// Parses `--admission lru|segmented`.
fn expect_admission(args: &mut impl Iterator<Item = String>) -> AdmissionPolicy {
    let value = expect_arg(args, "--admission needs lru|segmented");
    AdmissionPolicy::parse(&value)
        .unwrap_or_else(|| die!(2, "unknown admission policy `{value}` (lru|segmented)"))
}

/// The engine flags `serve` and `serve-tcp` share. `cfg` starts at
/// [`EngineConfig::default`], whose values are the documented defaults.
struct EngineFlags {
    cfg: EngineConfig,
    scheme: String,
    drop_p: Option<f64>,
    fault_epochs: Option<u32>,
    restore: Option<String>,
}

impl EngineFlags {
    fn new() -> Self {
        EngineFlags {
            cfg: EngineConfig::default(),
            scheme: "uniform".to_string(),
            drop_p: None,
            fault_epochs: None,
            restore: None,
        }
    }

    /// Consumes `arg` (and its value) if it is a shared flag.
    fn take(&mut self, arg: &str, args: &mut impl Iterator<Item = String>) -> bool {
        let cfg = &mut self.cfg;
        match arg {
            "--threads" => cfg.threads = expect_num(args, "--threads"),
            "--seed" => cfg.seed = expect_num(args, "--seed"),
            "--cache-mb" => cfg.cache_bytes = expect_num::<usize>(args, "--cache-mb") << 20,
            "--admission" => cfg.admission = expect_admission(args),
            "--width" => cfg.width = expect_width(args),
            "--trace-every" => cfg.obs.trace_every = expect_num(args, "--trace-every"),
            "--drop-p" => self.drop_p = Some(expect_num(args, "--drop-p")),
            "--fault-epochs" => self.fault_epochs = Some(expect_num(args, "--fault-epochs")),
            "--restore" => self.restore = Some(expect_arg(args, "--restore needs a snapshot path")),
            "--scheme" => self.scheme = expect_arg(args, "--scheme needs a value"),
            _ => return false,
        }
        true
    }
}

fn serve(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut flags = EngineFlags::new();
    let mut sampler_flag: Option<String> = None;
    let mut json_path: Option<String> = None;
    while let Some(arg) = args.next() {
        if flags.take(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--sampler" => {
                sampler_flag = Some(expect_arg(
                    &mut args,
                    "--sampler needs scalar|batched|ball-realized",
                ))
            }
            "--json" => json_path = Some(expect_arg(&mut args, "--json needs a path")),
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => die!(2, "unknown serve argument: {other}"),
        }
    }
    let file = file.unwrap_or_else(|| die!(2, "serve needs a workload file (try `gen` first)"));
    let EngineConfig { seed, threads, .. } = flags.cfg;
    let mut scheme_name = flags.scheme;
    // Resolve the sampler backend: `ball-realized` is the pre-realized
    // backend — one fixed joint draw served as a contact table — spelled
    // as a scheme swap so the engine itself stays scheme-agnostic.
    let sampler = match sampler_flag.as_deref() {
        None => SamplerMode::Scalar,
        Some("ball-realized") => {
            if scheme_name != "ball" && scheme_name != "ball-realized" {
                die!(2, "--sampler ball-realized only applies to --scheme ball");
            }
            scheme_name = "ball-realized".to_string();
            SamplerMode::Scalar
        }
        Some(value) => SamplerMode::parse(value).unwrap_or_else(|| {
            die!(
                2,
                "unknown sampler `{value}` (scalar|batched|ball-realized)"
            )
        }),
    };
    // Workload endpoints were validated against the file's node count at
    // parse time; families build *approximate* sizes, so `load_workload`
    // insists the two agree exactly or out-of-range endpoints would abort
    // mid-replay. (`gen` pins the file to the built size.)
    let (spec, g) = load_workload(&file);
    let fault = resolve_fault(flags.drop_p, flags.fault_epochs, spec.fault, seed);
    if fault.is_active() {
        eprintln!(
            "[nav-engine] faults: drop_p={}, churn={}",
            fault.drop_prob,
            fault
                .plan
                .map(|p| format!(
                    "{} epochs × {} queries, {} down",
                    p.epochs(),
                    p.period(),
                    p.down_frac()
                ))
                .unwrap_or_else(|| "off".into())
        );
    }
    eprintln!(
        "[nav-engine] graph {} n={} m={} | {} queries ({} distinct targets), batch {}, scheme {}, sampler {}, cache {} MiB, threads {}",
        spec.graph.family,
        g.num_nodes(),
        g.num_edges(),
        spec.queries.len(),
        spec.distinct_targets(),
        spec.batch_size,
        scheme_name,
        sampler.label(),
        flags.cfg.cache_bytes >> 20,
        threads
    );
    let mut engine = match &flags.restore {
        // The snapshot wins every answer-determining knob; the workload
        // file still drives the query stream, so its graph must match.
        Some(path) => {
            let engine = restore_engine(path, &flags.cfg);
            if engine.graph().num_nodes() != g.num_nodes() {
                die!(
                    2,
                    "{path}: snapshot graph has {} nodes but workload {file} declares {} — refusing to serve a mismatched stream",
                    engine.graph().num_nodes(),
                    g.num_nodes()
                );
            }
            engine
        }
        None => build_engine(
            g,
            &scheme_name,
            EngineConfig {
                sampler,
                fault,
                ..flags.cfg
            },
        ),
    };
    let t0 = std::time::Instant::now();
    let mut failures = 0usize;
    for batch in spec.batches() {
        let result = engine
            .serve(&batch)
            .unwrap_or_else(|e| die!(1, "serve failed: {e}"));
        failures += result.answers.iter().map(|a| a.failures).sum::<usize>();
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let m = engine.metrics();
    let cache = engine.cache_stats();
    let latency = m
        .latency()
        .map(|l| l.to_json())
        .unwrap_or_else(|| "null".into());
    println!("queries           {}", m.queries);
    println!("batches           {}", m.batches);
    println!("trials            {}", m.trials);
    println!("failures          {failures}");
    println!("elapsed           {elapsed_ms:.1} ms");
    println!("throughput        {:.0} queries/s", m.throughput_qps());
    println!("batch latency     {latency}");
    println!(
        "cache [{}]        {} rows resident ({} KiB), {} hits / {} misses (rate {:.3}), {} evictions",
        flags.cfg.admission.label(),
        cache.resident_rows,
        cache.resident_bytes / 1024,
        cache.hits,
        cache.misses,
        cache.hit_rate(),
        cache.evictions
    );
    println!(
        "targets           {} warm / {} cold",
        m.warm_targets, m.cold_targets
    );
    if fault.is_active() {
        println!(
            "faults            {} dropped links, {} rerouted hops, {} epoch flips",
            m.dropped_links, m.rerouted_hops, m.epoch_flips
        );
    }
    if m.sampler.misses + m.sampler.hits > 0 {
        println!(
            "sampler           {} ball rows over {} MS-BFS passes, {} hits / {} misses, {} KiB",
            m.sampler.rows,
            m.sampler.passes,
            m.sampler.hits,
            m.sampler.misses,
            m.sampler.row_bytes / 1024
        );
    }
    let obs = engine.obs_snapshot();
    if !obs.stages.is_empty() {
        println!("stage latency");
        print!("{}", obs.stage_table());
    }
    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"nav-engine-serve/v1\",\n  \"workload\": \"{}\",\n  \"scheme\": \"{}\",\n  \"sampler\": \"{}\",\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \"host\": {},\n  \"queries\": {},\n  \"batches\": {},\n  \"trials\": {},\n  \"failures\": {failures},\n  \"elapsed_ms\": {elapsed_ms:.3},\n  \"qps\": {:.3},\n  \"batch_latency_ms\": {latency},\n  \"cache\": {{\"policy\": \"{}\", \"capacity_bytes\": {}, \"resident_rows\": {}, \"resident_bytes\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.3}}},\n  \"ball_rows\": {{\"rows\": {}, \"passes\": {}, \"hits\": {}, \"misses\": {}, \"fallbacks\": {}, \"row_bytes\": {}}}\n}}\n",
            json_escape(&file),
            json_escape(&engine.scheme_name()),
            sampler.label(),
            nav_par::HostMeta::current().to_json(),
            m.queries,
            m.batches,
            m.trials,
            m.throughput_qps(),
            flags.cfg.admission.label(),
            cache.capacity_bytes,
            cache.resident_rows,
            cache.resident_bytes,
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.hit_rate(),
            m.sampler.rows,
            m.sampler.passes,
            m.sampler.hits,
            m.sampler.misses,
            m.sampler.fallbacks,
            m.sampler.row_bytes,
        );
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[nav-engine] summary -> {path}");
    }
}

fn gen(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut family = "gnp".to_string();
    let mut n = 4096usize;
    let mut graph_seed = 42u64;
    let mut queries = 100_000usize;
    let mut theta = 1.1f64;
    let mut hot = 1024usize;
    let mut zipf_seed = 7u64;
    let mut trials = 8usize;
    let mut batch = 512usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--family" => family = expect_arg(&mut args, "--family needs a value"),
            "--n" => n = expect_num(&mut args, "--n"),
            "--graph-seed" => graph_seed = expect_num(&mut args, "--graph-seed"),
            "--queries" => queries = expect_num(&mut args, "--queries"),
            "--theta" => theta = expect_num(&mut args, "--theta"),
            "--hot" => hot = expect_num(&mut args, "--hot"),
            "--zipf-seed" => zipf_seed = expect_num(&mut args, "--zipf-seed"),
            "--trials" => trials = expect_num(&mut args, "--trials"),
            "--batch" => batch = expect_num(&mut args, "--batch"),
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => die!(2, "unknown gen argument: {other}"),
        }
    }
    let file = file.unwrap_or_else(|| die!(2, "gen needs an output path"));
    // Families build *approximate* sizes (a grid rounds to a square, a
    // comb to whole teeth). Build once to learn the real node count, pin
    // the file to it, and verify the pinned size is a fixed point of the
    // builder — so `serve` reconstructs the exact same graph.
    let requested = GraphSpec {
        family,
        n,
        seed: graph_seed,
    };
    let built_n = family_graph(&requested).num_nodes();
    let spec = GraphSpec {
        n: built_n,
        ..requested
    };
    if family_graph(&spec).num_nodes() != built_n {
        die!(
            2,
            "family {} cannot be pinned at its built size ({built_n} nodes from --n {n}); try a different --n",
            spec.family
        );
    }
    if built_n != n {
        eprintln!("[nav-engine] note: {} builds {built_n} nodes for --n {n}; workload pinned to {built_n}", spec.family);
    }
    let zipf = ZipfSpec {
        count: queries,
        theta,
        seed: zipf_seed,
        hot: hot.min(built_n),
    };
    let text = render_workload(&spec, trials, batch, &zipf);
    // Validate what we are about to hand to `serve`.
    parse_workload(&text).unwrap_or_else(|e| panic!("generated workload invalid: {e}"));
    std::fs::write(&file, &text).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    eprintln!(
        "[nav-engine] workload ({queries} queries over {} hot targets) -> {file}",
        zipf.hot
    );
}

/// Reads and parses a workload file, building its graph (exiting with a
/// message on any failure) — the shared front of `serve`-family commands.
fn load_workload(file: &str) -> (WorkloadSpec, Graph) {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| die!(2, "reading {file}: {e}"));
    let spec = parse_workload(&text).unwrap_or_else(|e| die!(2, "{file}: {e}"));
    let g = family_graph(&spec.graph);
    if g.num_nodes() != spec.graph.n {
        die!(
            2,
            "{file}: graph {} builds {} nodes, but the workload declares n={} — regenerate with `gen --family {} --n {}`",
            spec.graph.family,
            g.num_nodes(),
            spec.graph.n,
            spec.graph.family,
            g.num_nodes()
        );
    }
    (spec, g)
}

fn serve_tcp(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut addr = "127.0.0.1:4777".to_string();
    let mut flags = EngineFlags::new();
    let mut net = NetConfig::default();
    let mut record_path: Option<String> = None;
    while let Some(arg) = args.next() {
        if flags.take(&arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--record" => {
                record_path = Some(expect_arg(&mut args, "--record needs an output path"))
            }
            "--addr" => addr = expect_arg(&mut args, "--addr needs HOST:PORT"),
            "--workers" => net.workers = expect_num(&mut args, "--workers"),
            "--max-queries" => net.max_batch_queries = expect_num(&mut args, "--max-queries"),
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => die!(2, "unknown serve-tcp argument: {other}"),
        }
    }
    let EngineConfig { seed, threads, .. } = flags.cfg;
    let engine = match &flags.restore {
        // The snapshot carries graph, scheme, and every answer-determining
        // knob, so no workload file is needed (one given anyway is only a
        // graph spec here — ignored with a note).
        Some(path) => {
            if let Some(f) = &file {
                eprintln!("[nav-engine] note: workload file {f} ignored under --restore (the snapshot carries the graph and config)");
            }
            restore_engine(path, &flags.cfg)
        }
        None => {
            let file = file.unwrap_or_else(|| die!(2, "serve-tcp needs a workload file for its graph spec (try `gen` first) or --restore SNAPSHOT"));
            let (spec, g) = load_workload(&file);
            let fault = resolve_fault(flags.drop_p, flags.fault_epochs, spec.fault, seed);
            eprintln!(
                "[nav-engine] serving graph {} n={} (scheme {}, seed {seed}, cache {} MiB [{}], {} workers × {threads} threads)",
                spec.graph.family,
                spec.graph.n,
                flags.scheme,
                flags.cfg.cache_bytes >> 20,
                flags.cfg.admission.label(),
                net.workers
            );
            if fault.is_active() {
                eprintln!(
                    "[nav-engine] faults: drop_p={}, churn epochs={}",
                    fault.drop_prob,
                    fault.plan.map(|p| p.epochs()).unwrap_or(0)
                );
            }
            build_engine(g, &flags.scheme, EngineConfig { fault, ..flags.cfg })
        }
    };
    let server = NetServer::bind(engine, net, addr.as_str())
        .unwrap_or_else(|e| die!(1, "binding {addr}: {e}"));
    if let Some(path) = &record_path {
        server
            .record_to(path)
            .unwrap_or_else(|e| die!(1, "recording to {path}: {e}"));
        eprintln!("[nav-engine] recording traffic -> {path}");
    }
    let bound = server.local_addr().expect("bound address");
    // The one stdout line scripts wait for before starting clients.
    println!("listening on {bound}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server
        .run()
        .unwrap_or_else(|e| die!(1, "server failed: {e}"));
}

/// Replays the workload's query stream over one client connection,
/// returning (elapsed ms, last metrics snapshot, failures).
fn replay_over_tcp(client: &mut NetClient, spec: &WorkloadSpec) -> (f64, MetricsSnapshot, usize) {
    let t0 = std::time::Instant::now();
    let mut metrics = MetricsSnapshot::default();
    let mut failures = 0usize;
    for batch in spec.batches() {
        let (answers, m) = client
            .serve(0, SamplerMode::Scalar, &batch)
            .unwrap_or_else(|e| die!(1, "bench-tcp replay failed: {e}"));
        failures += answers.iter().map(|a| a.failures).sum::<usize>();
        metrics = m;
    }
    (t0.elapsed().as_secs_f64() * 1e3, metrics, failures)
}

/// `bench-tcp FILE --addr HOST:PORT` replays against a running
/// serve-tcp (the self-hosted `bench-tcp --bench-json` form is routed to
/// [`bench`] by `main`).
fn bench_tcp(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut json_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--json" => json_path = args.next(),
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => die!(2, "unknown bench-tcp argument: {other}"),
        }
    }
    let (Some(file), Some(addr)) = (file, addr) else {
        die!(2, "bench-tcp needs either `FILE --addr HOST:PORT` (replay against a running serve-tcp) or `--bench-json [PATH]` (self-hosted BENCH_net.json)");
    };
    let (spec, _g) = load_workload(&file);
    let mut client =
        NetClient::connect(addr.as_str()).unwrap_or_else(|e| die!(1, "connecting {addr}: {e}"));
    eprintln!(
        "[nav-engine] bench-tcp: {} queries × 2 passes against {addr}",
        spec.queries.len()
    );
    let (cold_ms, _, cold_failures) = replay_over_tcp(&mut client, &spec);
    let (warm_ms, m, warm_failures) = replay_over_tcp(&mut client, &spec);
    let qps = |ms: f64| spec.queries.len() as f64 / (ms / 1e3);
    let hit_rate = m.cache_hits as f64 / (m.cache_hits + m.cache_misses).max(1) as f64;
    println!(
        "pass1 (cold)      {cold_ms:.1} ms ({:.0} queries/s)",
        qps(cold_ms)
    );
    println!(
        "pass2 (warm)      {warm_ms:.1} ms ({:.0} queries/s)",
        qps(warm_ms)
    );
    println!("failures          {}", cold_failures + warm_failures);
    println!(
        "server cache      {} hits / {} misses (rate {hit_rate:.3}), {} rows resident",
        m.cache_hits, m.cache_misses, m.cache_resident_rows
    );
    // The per-run stage-latency view, straight off the wire: where did
    // the server spend those passes? Non-fatal if refused — the replay
    // numbers above already stand on their own.
    match client.stats(0) {
        Ok(reply) => {
            println!("server stages     (per-stage latency from the stats frame)");
            print!("{}", reply.obs.stage_table());
        }
        Err(e) => eprintln!("[nav-engine] stats frame unavailable: {e}"),
    }
    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"schema\": \"nav-net-replay/v1\",\n  \"workload\": \"{}\",\n  \"addr\": \"{}\",\n  \"queries_per_pass\": {},\n  \"failures\": {},\n  \"pass1\": {{\"elapsed_ms\": {cold_ms:.3}, \"qps\": {:.3}}},\n  \"pass2\": {{\"elapsed_ms\": {warm_ms:.3}, \"qps\": {:.3}}},\n  \"server_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {hit_rate:.3}, \"resident_rows\": {}, \"evictions\": {}}}\n}}\n",
            json_escape(&file),
            json_escape(&addr),
            spec.queries.len(),
            cold_failures + warm_failures,
            qps(cold_ms),
            qps(warm_ms),
            m.cache_hits,
            m.cache_misses,
            m.cache_resident_rows,
            m.cache_evictions,
        );
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[nav-engine] replay summary -> {path}");
    }
}

/// Renders a [`nav_net::StatsReply`] as a plain-text `/metrics`-style
/// exposition: the merged counters, then the stage-latency summaries and
/// sampled traces from the obs snapshot.
fn stats_text(reply: &nav_net::StatsReply) -> String {
    use std::fmt::Write as _;
    let m = &reply.metrics;
    let mut out = String::new();
    for (name, v) in [
        ("nav_queries_total", m.queries),
        ("nav_batches_total", m.batches),
        ("nav_trials_total", m.trials),
        ("nav_warm_targets_total", m.warm_targets),
        ("nav_cold_targets_total", m.cold_targets),
        ("nav_cache_hits_total", m.cache_hits),
        ("nav_cache_misses_total", m.cache_misses),
        ("nav_cache_evictions_total", m.cache_evictions),
        ("nav_cache_rejected_rows_total", m.cache_rejected_rows),
        ("nav_dropped_links_total", m.dropped_links),
        ("nav_rerouted_hops_total", m.rerouted_hops),
        ("nav_epoch_flips_total", m.epoch_flips),
        ("nav_timeout_setup_failures_total", m.timeout_setup_failures),
    ] {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in [
        ("nav_cache_resident_rows", m.cache_resident_rows),
        ("nav_cache_resident_bytes", m.cache_resident_bytes),
        ("nav_cache_capacity_bytes", m.cache_capacity_bytes),
    ] {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    reply.obs.render_text(&mut out);
    out
}

/// Renders a [`nav_net::StatsReply`] as one JSON document.
fn stats_json(addr: &str, reply: &nav_net::StatsReply) -> String {
    let m = &reply.metrics;
    format!(
        "{{\n  \"schema\": \"nav-engine-stats/v1\",\n  \"addr\": \"{}\",\n  \"metrics\": {{\"queries\": {}, \"batches\": {}, \"trials\": {}, \"warm_targets\": {}, \"cold_targets\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \"cache_rejected_rows\": {}, \"cache_resident_rows\": {}, \"cache_resident_bytes\": {}, \"cache_capacity_bytes\": {}, \"dropped_links\": {}, \"rerouted_hops\": {}, \"epoch_flips\": {}, \"timeout_setup_failures\": {}}},\n  \"obs\": {}\n}}\n",
        json_escape(addr),
        m.queries,
        m.batches,
        m.trials,
        m.warm_targets,
        m.cold_targets,
        m.cache_hits,
        m.cache_misses,
        m.cache_evictions,
        m.cache_rejected_rows,
        m.cache_resident_rows,
        m.cache_resident_bytes,
        m.cache_capacity_bytes,
        m.dropped_links,
        m.rerouted_hops,
        m.epoch_flips,
        m.timeout_setup_failures,
        reply.obs.to_json(),
    )
}

/// `nav-engine stats ADDR [--handle H] [--json]` — ask a running
/// serve-tcp for its ops snapshot over the wire and print it.
fn stats(mut args: impl Iterator<Item = String>) {
    let mut addr: Option<String> = None;
    let mut handle = 0u32;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--handle" => handle = expect_num(&mut args, "--handle"),
            "--json" => json = true,
            other if addr.is_none() && !other.starts_with("--") => addr = Some(other.to_string()),
            other => die!(2, "unknown stats argument: {other}"),
        }
    }
    let addr = addr.unwrap_or_else(|| die!(2, "stats needs the HOST:PORT of a running serve-tcp"));
    let mut client =
        NetClient::connect(addr.as_str()).unwrap_or_else(|e| die!(1, "connecting {addr}: {e}"));
    let reply = client
        .stats(handle)
        .unwrap_or_else(|e| die!(1, "stats request failed: {e}"));
    if json {
        print!("{}", stats_json(&addr, &reply));
    } else {
        print!("{}", stats_text(&reply));
    }
}

/// `nav-engine snapshot ADDR FILE [--handle H]` — ask a running
/// serve-tcp to capture its durable state and write the encoded snapshot
/// to `FILE` (sanity-decoded first, so a bad capture never lands on
/// disk). Restore it with `serve`/`serve-tcp --restore FILE`.
fn snapshot_cmd(mut args: impl Iterator<Item = String>) {
    let mut addr: Option<String> = None;
    let mut file: Option<String> = None;
    let mut handle = 0u32;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--handle" => handle = expect_num(&mut args, "--handle"),
            other if addr.is_none() && !other.starts_with("--") => addr = Some(other.to_string()),
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => die!(2, "unknown snapshot argument: {other}"),
        }
    }
    let (Some(addr), Some(file)) = (addr, file) else {
        die!(2, "snapshot needs HOST:PORT and an output path");
    };
    let mut client =
        NetClient::connect(addr.as_str()).unwrap_or_else(|e| die!(1, "connecting {addr}: {e}"));
    let bytes = client
        .snapshot(handle)
        .unwrap_or_else(|e| die!(1, "snapshot request failed: {e}"));
    let snap = Snapshot::decode(&bytes)
        .unwrap_or_else(|e| die!(1, "server sent an undecodable snapshot: {e}"));
    std::fs::write(&file, &bytes).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    eprintln!(
        "[nav-engine] snapshot of {addr}: n={} seed={} served={} resident rows={} ({} bytes) -> {file}",
        snap.num_nodes,
        snap.seed,
        snap.state.served,
        snap.state.rows.len(),
        bytes.len()
    );
}

/// FNV-1a over a byte slice, continuing from `h` — the replay command's
/// stream digest (self-contained; stable across platforms).
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Folds one answer into a stream digest, float fields by bit pattern —
/// the same identity `PairStats::bits_eq` checks.
fn hash_answer(h: &mut u64, a: &nav_core::trial::PairStats) {
    for v in [a.s, a.t, a.dist, a.max_steps] {
        fnv1a(h, &v.to_le_bytes());
    }
    fnv1a(h, &(a.failures as u64).to_le_bytes());
    for v in [a.mean_steps, a.std_steps, a.mean_long_links] {
        fnv1a(h, &v.to_bits().to_le_bytes());
    }
}

/// `nav-engine replay FILE ADDR` — re-drive a `--record`ed traffic log
/// against a running serve-tcp and check every answer against the
/// recorded one, bit for bit. Works because each recorded request
/// carries its own `rng_base`: answers are pure functions of the
/// request, so a restored server must reproduce them exactly. Exits 1 on
/// the first divergence; on success prints matching stream digests and
/// the `replay bit-identical with recording` line CI greps for. Entries
/// this build's protocol version cannot decode are counted as skipped,
/// so every entry of a log recorded under protocol v4 is skipped.
fn replay_cmd(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut addr: Option<String> = None;
    for arg in args.by_ref() {
        match arg.as_str() {
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other if addr.is_none() && !other.starts_with("--") => addr = Some(other.to_string()),
            other => die!(2, "unknown replay argument: {other}"),
        }
    }
    let (Some(file), Some(addr)) = (file, addr) else {
        die!(2, "replay needs a traffic log and HOST:PORT");
    };
    let bytes = std::fs::read(&file).unwrap_or_else(|e| die!(2, "reading {file}: {e}"));
    let entries = nav_store::read_record_log(&bytes).unwrap_or_else(|e| die!(2, "{file}: {e}"));
    let mut client =
        NetClient::connect(addr.as_str()).unwrap_or_else(|e| die!(1, "connecting {addr}: {e}"));
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut recorded_digest, mut replayed_digest) = (FNV_OFFSET, FNV_OFFSET);
    let max = nav_net::frame::DEFAULT_MAX_PAYLOAD;
    let (mut compared, mut refusals, mut skipped) = (0usize, 0usize, 0usize);
    for (i, entry) in entries.iter().enumerate() {
        // Entries the current protocol version cannot decode are skipped,
        // not fatal — a log may straddle a protocol upgrade.
        let Ok((Frame::Request(req), _)) = Frame::decode(&entry.request, max) else {
            skipped += 1;
            continue;
        };
        match Frame::decode(&entry.response, max) {
            Ok((Frame::Response(resp), _)) => {
                let (answers, _) = client
                    .request(req)
                    .unwrap_or_else(|e| die!(1, "replay entry {i} failed: {e}"));
                let identical = answers.len() == resp.answers.len()
                    && answers.iter().zip(&resp.answers).all(|(a, b)| a.bits_eq(b));
                if !identical {
                    die!(1, "replay DIVERGED from recording at entry {i}");
                }
                for a in &resp.answers {
                    hash_answer(&mut recorded_digest, a);
                }
                for a in &answers {
                    hash_answer(&mut replayed_digest, a);
                }
                compared += 1;
            }
            // A recorded refusal must refuse again (same deterministic
            // admission checks); its bytes carry no answers to digest.
            Ok((Frame::Error(_), _)) => match client.request(req) {
                Err(NetError::Remote(_)) => refusals += 1,
                other => die!(
                    1,
                    "replay entry {i}: recording holds a refusal but replay got {}",
                    match other {
                        Ok(_) => "an answer".to_string(),
                        Err(e) => e.to_string(),
                    }
                ),
            },
            _ => skipped += 1,
        }
    }
    println!(
        "replayed {} entries against {addr}: {compared} compared, {refusals} refusals, {skipped} skipped",
        entries.len()
    );
    println!("recorded answers fnv1a={recorded_digest:016x}");
    println!("replayed answers fnv1a={replayed_digest:016x}");
    println!("replay bit-identical with recording");
}

/// The four `BENCH_*.json` commands: parse [`BENCH_USAGE`] (a usage
/// error exits 2), then render and write the baseline.
fn bench(
    label: &str,
    default_path: &str,
    render: fn(&ExpConfig) -> String,
    args: impl Iterator<Item = String>,
) {
    let (cfg, path) = parse_bench_args(args, default_path).unwrap_or_else(|e| {
        eprintln!("{label}: {e}");
        usage()
    });
    emit_bench(&format!("nav-engine {label}"), &path, &cfg, render);
}

fn usage() -> ! {
    die!(2, "usage: nav-engine serve FILE [--threads N] [--seed S] [--cache-mb M] [--scheme NAME] [--sampler scalar|batched|ball-realized] [--admission lru|segmented] [--drop-p P] [--fault-epochs E] [--trace-every T] [--restore SNAPSHOT] [--json PATH]\n       nav-engine serve-tcp FILE|--restore SNAPSHOT [--addr HOST:PORT] [--threads N] [--seed S] [--cache-mb M] [--scheme NAME] [--admission lru|segmented] [--drop-p P] [--fault-epochs E] [--trace-every T] [--workers W] [--max-queries Q] [--record LOG]\n       nav-engine bench-tcp FILE --addr HOST:PORT [--json PATH]\n       nav-engine bench-tcp --bench-json {BENCH_USAGE}\n       nav-engine stats HOST:PORT [--handle H] [--json]\n       nav-engine snapshot HOST:PORT FILE [--handle H]\n       nav-engine replay LOG HOST:PORT\n       nav-engine gen FILE [--family F] [--n N] [--graph-seed S] [--queries C] [--theta T] [--hot H] [--zipf-seed Z] [--trials T] [--batch B]\n       nav-engine scale-bench {BENCH_USAGE}\n       nav-engine chaos-bench {BENCH_USAGE}\n       nav-engine --bench-json {BENCH_USAGE}");
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => serve(args),
        Some("serve-tcp") => serve_tcp(args),
        Some("bench-tcp") => {
            let args: Vec<String> = args.collect();
            if args.iter().any(|a| a == "--bench-json") {
                let rest = args.into_iter().filter(|a| a != "--bench-json");
                bench("bench-tcp", "BENCH_net.json", render_net_bench, rest);
            } else {
                bench_tcp(args.into_iter());
            }
        }
        Some("stats") => stats(args),
        Some("snapshot") => snapshot_cmd(args),
        Some("replay") => replay_cmd(args),
        Some("gen") => gen(args),
        Some("scale-bench") => bench("scale-bench", "BENCH_scale.json", render_scale_bench, args),
        Some("chaos-bench") => bench("chaos-bench", "BENCH_fault.json", render_fault_bench, args),
        Some("--bench-json") => bench("bench-json", "BENCH_serve.json", render_serve_bench, args),
        Some("--help") | Some("-h") | None => usage(),
        Some(other) => {
            eprintln!("unknown command: {other} (try --help)");
            usage();
        }
    }
}
