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
//! # emit the BENCH_serve.json cold-vs-warm baseline
//! cargo run -p nav-bench --release --bin nav-engine -- --bench-json [PATH] [--quick] [--threads N] [--seed S]
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
//! # emit the BENCH_net.json loopback wire baseline (self-hosted)
//! cargo run -p nav-bench --release --bin nav-engine -- bench-tcp --bench-json [PATH] [--quick] [--threads N] [--seed S]
//!
//! # emit the BENCH_scale.json exact-row memory and cold/warm serving
//! # baseline (n = 10^6; --quick is the CI-sized n = 10^5 smoke)
//! cargo run -p nav-bench --release --bin nav-engine -- scale-bench [PATH] [--quick] [--threads N] [--seed S]
//!
//! # emit the BENCH_fault.json success/stretch-vs-drop-probability
//! # degradation baseline (link drops + node churn)
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
//! `serve`, `serve-tcp`, and `gen` all take `--shards K` (1..=255): `gen`
//! stamps the workload file, the serving commands give the one engine `K`
//! shard labels (target `t` belongs to shard `t % K`). Labels stamp traces
//! and let a wire handle pin one shard's targets; answers never change.
//!
//! The serving commands also take `--drop-p P` (each long-range lookup
//! fails i.i.d. with probability `P`) and `--fault-epochs E` (`E` epochs
//! of seeded node churn, 1024 queries / 5% of nodes down each); either
//! flag overrides the workload file's `fault` directive. Faulty answers
//! stay bit-identical across threads, cache sizes, batch splits and
//! shard counts — failure injection is part of the determinism contract.

use nav_bench::faultjson::render_fault_bench;
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
    parse_workload, render_workload_with_shards, FaultSpec, GraphSpec, WorkloadSpec, ZipfSpec,
};
use nav_engine::{AdmissionPolicy, Engine, EngineConfig, MAX_SHARDS};
use nav_graph::msbfs::LaneWidth;
use nav_graph::Graph;
use nav_net::{Frame, MetricsSnapshot, NetClient, NetConfig, NetError, NetServer};
use nav_store::Snapshot;

fn family_graph(spec: &GraphSpec) -> Graph {
    let family = match spec.family.as_str() {
        "path" => Workload::Path,
        "grid2d" => Workload::Grid2d,
        "random-tree" => Workload::RandomTree,
        "gnp" => Workload::Gnp,
        "lollipop" => Workload::Lollipop,
        "comb" => Workload::Comb,
        other => {
            eprintln!("unknown graph family `{other}` (path|grid2d|random-tree|gnp|lollipop|comb)");
            std::process::exit(2);
        }
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
        other => {
            eprintln!("unknown scheme `{other}` (uniform|ball|ball-realized|none)");
            std::process::exit(2);
        }
    }
}

/// An engine over the named scheme with `shards` shard labels — the
/// shared construction of `serve` and `serve-tcp`.
fn build_engine(g: Graph, scheme_name: &str, cfg: EngineConfig, shards: usize) -> Engine {
    let scheme = scheme_for(scheme_name, &g, cfg.seed, cfg.threads);
    let mut engine = Engine::new(g, scheme, cfg);
    engine.set_shards(shards);
    engine
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

fn expect_num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a number");
        std::process::exit(2);
    })
}

/// Parses `--shards K` (bounded by the one-byte shard selector of the
/// wire protocol's handle, like the workload-file directive).
fn expect_shards(args: &mut impl Iterator<Item = String>) -> usize {
    let shards: usize = expect_num(args, "--shards");
    if shards == 0 || shards > MAX_SHARDS {
        eprintln!("--shards must be in 1..={MAX_SHARDS}, got {shards}");
        std::process::exit(2);
    }
    shards
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
        eprintln!("--drop-p must be in [0, 1], got {}", spec.drop_prob);
        std::process::exit(2);
    }
    spec.to_config(seed)
}

/// Reads and decodes a snapshot file, restoring a serving engine from it
/// (exiting with a message on any failure). The snapshot carries
/// everything answer-determining — graph, scheme, seed, cache, faults —
/// plus the shard count, counters and rows, so only the answer-invisible
/// knobs (threads, tracing) come from the caller.
fn restore_engine(path: &str, threads: usize, trace_every: u64) -> Engine {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(2);
    });
    let snap = Snapshot::decode(&bytes).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let obs = nav_obs::ObsConfig {
        trace_every,
        ..nav_obs::ObsConfig::default()
    };
    let engine = snap.restore(threads, obs).unwrap_or_else(|e| {
        eprintln!("{path}: restore failed: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "[nav-engine] restored {path}: n={} seed={} shards={} served={} resident rows={}",
        snap.num_nodes,
        snap.seed,
        snap.shards,
        snap.state.served,
        snap.state.rows.len()
    );
    engine
}

/// Parses `--width 64|128|256` (MS-BFS lanes per word block).
fn expect_width(args: &mut impl Iterator<Item = String>) -> LaneWidth {
    let value = args.next().unwrap_or_else(|| {
        eprintln!("--width needs 64|128|256");
        std::process::exit(2);
    });
    LaneWidth::parse(&value).unwrap_or_else(|| {
        eprintln!("unknown lane width `{value}` (64|128|256)");
        std::process::exit(2);
    })
}

/// Parses `--admission lru|segmented`.
fn expect_admission(args: &mut impl Iterator<Item = String>) -> AdmissionPolicy {
    let value = args.next().unwrap_or_else(|| {
        eprintln!("--admission needs lru|segmented");
        std::process::exit(2);
    });
    AdmissionPolicy::parse(&value).unwrap_or_else(|| {
        eprintln!("unknown admission policy `{value}` (lru|segmented)");
        std::process::exit(2);
    })
}

fn serve(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut threads = nav_par::default_threads();
    let mut seed = 0x5eedu64;
    let mut cache_mb = 128usize;
    let mut scheme_name = "uniform".to_string();
    let mut sampler_flag: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut admission = AdmissionPolicy::Lru;
    let mut shards_flag: Option<usize> = None;
    let mut drop_p: Option<f64> = None;
    let mut fault_epochs: Option<u32> = None;
    let mut trace_every = nav_obs::ObsConfig::default().trace_every;
    let mut restore_path: Option<String> = None;
    let mut width = LaneWidth::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = expect_num(&mut args, "--threads"),
            "--seed" => seed = expect_num(&mut args, "--seed"),
            "--cache-mb" => cache_mb = expect_num(&mut args, "--cache-mb"),
            "--admission" => admission = expect_admission(&mut args),
            "--width" => width = expect_width(&mut args),
            "--shards" => shards_flag = Some(expect_shards(&mut args)),
            "--drop-p" => drop_p = Some(expect_num(&mut args, "--drop-p")),
            "--fault-epochs" => fault_epochs = Some(expect_num(&mut args, "--fault-epochs")),
            "--trace-every" => trace_every = expect_num(&mut args, "--trace-every"),
            "--restore" => {
                restore_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--restore needs a snapshot path");
                    std::process::exit(2);
                }))
            }
            "--scheme" => {
                scheme_name = args.next().unwrap_or_else(|| {
                    eprintln!("--scheme needs a value");
                    std::process::exit(2);
                })
            }
            "--sampler" => {
                sampler_flag = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--sampler needs scalar|batched|ball-realized");
                    std::process::exit(2);
                }));
            }
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }))
            }
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => {
                eprintln!("unknown serve argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let file = file.unwrap_or_else(|| {
        eprintln!("serve needs a workload file (try `gen` first)");
        std::process::exit(2);
    });
    // Resolve the sampler backend: `ball-realized` is the pre-realized
    // backend — one fixed joint draw served as a contact table — spelled
    // as a scheme swap so the engine itself stays scheme-agnostic.
    let sampler = match sampler_flag.as_deref() {
        None => SamplerMode::Scalar,
        Some("ball-realized") => {
            if scheme_name != "ball" && scheme_name != "ball-realized" {
                eprintln!("--sampler ball-realized only applies to --scheme ball");
                std::process::exit(2);
            }
            scheme_name = "ball-realized".to_string();
            SamplerMode::Scalar
        }
        Some(value) => SamplerMode::parse(value).unwrap_or_else(|| {
            eprintln!("unknown sampler `{value}` (scalar|batched|ball-realized)");
            std::process::exit(2);
        }),
    };
    // Workload endpoints were validated against the file's node count at
    // parse time; families build *approximate* sizes, so `load_workload`
    // insists the two agree exactly or out-of-range endpoints would abort
    // mid-replay. (`gen` pins the file to the built size.)
    let (spec, g) = load_workload(&file);
    let shards = shards_flag.unwrap_or(spec.shards);
    let fault = resolve_fault(drop_p, fault_epochs, spec.fault, seed);
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
        "[nav-engine] graph {} n={} m={} | {} queries ({} distinct targets), batch {}, scheme {}, sampler {}, cache {} MiB, threads {}, shards {}",
        spec.graph.family,
        g.num_nodes(),
        g.num_edges(),
        spec.queries.len(),
        spec.distinct_targets(),
        spec.batch_size,
        scheme_name,
        sampler.label(),
        cache_mb,
        threads,
        shards
    );
    let mut engine = match &restore_path {
        // The snapshot wins every answer-determining knob; the workload
        // file still drives the query stream, so its graph must match.
        Some(path) => {
            let engine = restore_engine(path, threads, trace_every);
            if engine.graph().num_nodes() != g.num_nodes() {
                eprintln!(
                    "{path}: snapshot graph has {} nodes but workload {file} declares {} — refusing to serve a mismatched stream",
                    engine.graph().num_nodes(),
                    g.num_nodes()
                );
                std::process::exit(2);
            }
            engine
        }
        None => build_engine(
            g,
            &scheme_name,
            EngineConfig {
                seed,
                threads,
                cache_bytes: cache_mb << 20,
                sampler,
                admission,
                fault,
                width,
                obs: nav_obs::ObsConfig {
                    trace_every,
                    ..nav_obs::ObsConfig::default()
                },
            },
            shards,
        ),
    };
    // A restored engine keeps the snapshot's shard count.
    let shards = engine.num_shards();
    let t0 = std::time::Instant::now();
    let mut failures = 0usize;
    for batch in spec.batches() {
        let result = engine.serve(&batch).unwrap_or_else(|e| {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        });
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
        admission.label(),
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
            "{{\n  \"schema\": \"nav-engine-serve/v1\",\n  \"workload\": \"{}\",\n  \"scheme\": \"{}\",\n  \"sampler\": \"{}\",\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \"shards\": {shards},\n  \"host\": {},\n  \"queries\": {},\n  \"batches\": {},\n  \"trials\": {},\n  \"failures\": {failures},\n  \"elapsed_ms\": {elapsed_ms:.3},\n  \"qps\": {:.3},\n  \"batch_latency_ms\": {latency},\n  \"cache\": {{\"policy\": \"{}\", \"capacity_bytes\": {}, \"resident_rows\": {}, \"resident_bytes\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.3}}},\n  \"ball_rows\": {{\"rows\": {}, \"passes\": {}, \"hits\": {}, \"misses\": {}, \"fallbacks\": {}, \"row_bytes\": {}}}\n}}\n",
            json_escape(&file),
            json_escape(&engine.scheme_name()),
            sampler.label(),
            nav_par::HostMeta::current().to_json(),
            m.queries,
            m.batches,
            m.trials,
            m.throughput_qps(),
            admission.label(),
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
    let mut shards = 1usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => shards = expect_shards(&mut args),
            "--family" => {
                family = args.next().unwrap_or_else(|| {
                    eprintln!("--family needs a value");
                    std::process::exit(2);
                })
            }
            "--n" => n = expect_num(&mut args, "--n"),
            "--graph-seed" => graph_seed = expect_num(&mut args, "--graph-seed"),
            "--queries" => queries = expect_num(&mut args, "--queries"),
            "--theta" => theta = expect_num(&mut args, "--theta"),
            "--hot" => hot = expect_num(&mut args, "--hot"),
            "--zipf-seed" => zipf_seed = expect_num(&mut args, "--zipf-seed"),
            "--trials" => trials = expect_num(&mut args, "--trials"),
            "--batch" => batch = expect_num(&mut args, "--batch"),
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => {
                eprintln!("unknown gen argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let file = file.unwrap_or_else(|| {
        eprintln!("gen needs an output path");
        std::process::exit(2);
    });
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
        eprintln!(
            "family {} cannot be pinned at its built size ({built_n} nodes from --n {n}); try a different --n",
            spec.family
        );
        std::process::exit(2);
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
    let text = render_workload_with_shards(&spec, trials, batch, shards, &zipf);
    // Validate what we are about to hand to `serve`.
    parse_workload(&text).unwrap_or_else(|e| panic!("generated workload invalid: {e}"));
    std::fs::write(&file, &text).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    eprintln!(
        "[nav-engine] workload ({queries} queries over {} hot targets, {shards} shard{}) -> {file}",
        zipf.hot,
        if shards == 1 { "" } else { "s" }
    );
}

/// Reads and parses a workload file, building its graph (exiting with a
/// message on any failure) — the shared front of `serve`-family commands.
fn load_workload(file: &str) -> (WorkloadSpec, Graph) {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("reading {file}: {e}");
        std::process::exit(2);
    });
    let spec = parse_workload(&text).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        std::process::exit(2);
    });
    let g = family_graph(&spec.graph);
    if g.num_nodes() != spec.graph.n {
        eprintln!(
            "{file}: graph {} builds {} nodes, but the workload declares n={} — regenerate with `gen --family {} --n {}`",
            spec.graph.family,
            g.num_nodes(),
            spec.graph.n,
            spec.graph.family,
            g.num_nodes()
        );
        std::process::exit(2);
    }
    (spec, g)
}

fn serve_tcp(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut addr = "127.0.0.1:4777".to_string();
    let mut threads = nav_par::default_threads();
    let mut seed = 0x5eedu64;
    let mut cache_mb = 128usize;
    let mut scheme_name = "uniform".to_string();
    let mut admission = AdmissionPolicy::Lru;
    let mut net = NetConfig::default();
    let mut shards_flag: Option<usize> = None;
    let mut drop_p: Option<f64> = None;
    let mut fault_epochs: Option<u32> = None;
    let mut trace_every = nav_obs::ObsConfig::default().trace_every;
    let mut restore_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut width = LaneWidth::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--width" => width = expect_width(&mut args),
            "--shards" => shards_flag = Some(expect_shards(&mut args)),
            "--drop-p" => drop_p = Some(expect_num(&mut args, "--drop-p")),
            "--fault-epochs" => fault_epochs = Some(expect_num(&mut args, "--fault-epochs")),
            "--trace-every" => trace_every = expect_num(&mut args, "--trace-every"),
            "--restore" => {
                restore_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--restore needs a snapshot path");
                    std::process::exit(2);
                }))
            }
            "--record" => {
                record_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--record needs an output path");
                    std::process::exit(2);
                }))
            }
            "--addr" => {
                addr = args.next().unwrap_or_else(|| {
                    eprintln!("--addr needs HOST:PORT");
                    std::process::exit(2);
                })
            }
            "--threads" => threads = expect_num(&mut args, "--threads"),
            "--seed" => seed = expect_num(&mut args, "--seed"),
            "--cache-mb" => cache_mb = expect_num(&mut args, "--cache-mb"),
            "--admission" => admission = expect_admission(&mut args),
            "--workers" => net.workers = expect_num(&mut args, "--workers"),
            "--max-queries" => net.max_batch_queries = expect_num(&mut args, "--max-queries"),
            "--scheme" => {
                scheme_name = args.next().unwrap_or_else(|| {
                    eprintln!("--scheme needs a value");
                    std::process::exit(2);
                })
            }
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => {
                eprintln!("unknown serve-tcp argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let engine = match &restore_path {
        // The snapshot carries graph, scheme, and every answer-determining
        // knob, so no workload file is needed (one given anyway is only a
        // graph spec here — ignored with a note).
        Some(path) => {
            if let Some(f) = &file {
                eprintln!("[nav-engine] note: workload file {f} ignored under --restore (the snapshot carries the graph and config)");
            }
            restore_engine(path, threads, trace_every)
        }
        None => {
            let file = file.unwrap_or_else(|| {
                eprintln!("serve-tcp needs a workload file for its graph spec (try `gen` first) or --restore SNAPSHOT");
                std::process::exit(2);
            });
            let (spec, g) = load_workload(&file);
            let shards = shards_flag.unwrap_or(spec.shards);
            let fault = resolve_fault(drop_p, fault_epochs, spec.fault, seed);
            eprintln!(
                "[nav-engine] serving graph {} n={} (scheme {}, seed {seed}, cache {cache_mb} MiB [{}], {} shards, {} workers × {threads} threads)",
                spec.graph.family,
                spec.graph.n,
                scheme_name,
                admission.label(),
                shards,
                net.workers
            );
            if fault.is_active() {
                eprintln!(
                    "[nav-engine] faults: drop_p={}, churn epochs={}",
                    fault.drop_prob,
                    fault.plan.map(|p| p.epochs()).unwrap_or(0)
                );
            }
            build_engine(
                g,
                &scheme_name,
                EngineConfig {
                    seed,
                    threads,
                    cache_bytes: cache_mb << 20,
                    sampler: SamplerMode::Scalar,
                    admission,
                    fault,
                    width,
                    obs: nav_obs::ObsConfig {
                        trace_every,
                        ..nav_obs::ObsConfig::default()
                    },
                },
                shards,
            )
        }
    };
    let server = NetServer::bind(engine, net, addr.as_str()).unwrap_or_else(|e| {
        eprintln!("binding {addr}: {e}");
        std::process::exit(1);
    });
    if let Some(path) = &record_path {
        server.record_to(path).unwrap_or_else(|e| {
            eprintln!("recording to {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[nav-engine] recording traffic -> {path}");
    }
    let bound = server.local_addr().expect("bound address");
    // The one stdout line scripts wait for before starting clients.
    println!("listening on {bound}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().unwrap_or_else(|e| {
        eprintln!("server failed: {e}");
        std::process::exit(1);
    });
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
            .unwrap_or_else(|e| {
                eprintln!("bench-tcp replay failed: {e}");
                std::process::exit(1);
            });
        failures += answers.iter().map(|a| a.failures).sum::<usize>();
        metrics = m;
    }
    (t0.elapsed().as_secs_f64() * 1e3, metrics, failures)
}

fn bench_tcp(mut args: impl Iterator<Item = String>) {
    // Two forms share the parser: `bench-tcp FILE --addr HOST:PORT`
    // replays against a running serve-tcp; `bench-tcp --bench-json
    // [PATH]` self-hosts a loopback server and emits BENCH_net.json (the
    // positional doubles as the output path there).
    let mut file: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut bench_mode = false;
    let mut cfg = ExpConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--json" => json_path = args.next(),
            "--bench-json" => bench_mode = true,
            "--quick" => cfg.quick = true,
            "--threads" => cfg.threads = expect_num(&mut args, "--threads"),
            "--seed" => cfg.seed = expect_num(&mut args, "--seed"),
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => {
                eprintln!("unknown bench-tcp argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if bench_mode {
        let path = file.unwrap_or_else(|| "BENCH_net.json".to_string());
        return emit_net_bench(&cfg, &path);
    }
    let (Some(file), Some(addr)) = (file, addr) else {
        eprintln!(
            "bench-tcp needs either `FILE --addr HOST:PORT` (replay against a running serve-tcp) or `--bench-json [PATH]` (self-hosted BENCH_net.json)"
        );
        std::process::exit(2);
    };
    let (spec, _g) = load_workload(&file);
    let mut client = NetClient::connect(addr.as_str()).unwrap_or_else(|e| {
        eprintln!("connecting {addr}: {e}");
        std::process::exit(1);
    });
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
        ("nav_shards", u64::from(reply.shards)),
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
        "{{\n  \"schema\": \"nav-engine-stats/v1\",\n  \"addr\": \"{}\",\n  \"shards\": {},\n  \"metrics\": {{\"queries\": {}, \"batches\": {}, \"trials\": {}, \"warm_targets\": {}, \"cold_targets\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \"cache_rejected_rows\": {}, \"cache_resident_rows\": {}, \"cache_resident_bytes\": {}, \"cache_capacity_bytes\": {}, \"dropped_links\": {}, \"rerouted_hops\": {}, \"epoch_flips\": {}, \"timeout_setup_failures\": {}}},\n  \"obs\": {}\n}}\n",
        json_escape(addr),
        reply.shards,
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
            other => {
                eprintln!("unknown stats argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let addr = addr.unwrap_or_else(|| {
        eprintln!("stats needs the HOST:PORT of a running serve-tcp");
        std::process::exit(2);
    });
    let mut client = NetClient::connect(addr.as_str()).unwrap_or_else(|e| {
        eprintln!("connecting {addr}: {e}");
        std::process::exit(1);
    });
    let reply = client.stats(handle).unwrap_or_else(|e| {
        eprintln!("stats request failed: {e}");
        std::process::exit(1);
    });
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
            other => {
                eprintln!("unknown snapshot argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (Some(addr), Some(file)) = (addr, file) else {
        eprintln!("snapshot needs HOST:PORT and an output path");
        std::process::exit(2);
    };
    let mut client = NetClient::connect(addr.as_str()).unwrap_or_else(|e| {
        eprintln!("connecting {addr}: {e}");
        std::process::exit(1);
    });
    let bytes = client.snapshot(handle).unwrap_or_else(|e| {
        eprintln!("snapshot request failed: {e}");
        std::process::exit(1);
    });
    let snap = Snapshot::decode(&bytes).unwrap_or_else(|e| {
        eprintln!("server sent an undecodable snapshot: {e}");
        std::process::exit(1);
    });
    std::fs::write(&file, &bytes).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    eprintln!(
        "[nav-engine] snapshot of {addr}: n={} seed={} shards={} served={} resident rows={} ({} bytes) -> {file}",
        snap.num_nodes,
        snap.seed,
        snap.shards,
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
/// the `replay bit-identical with recording` line CI greps for.
fn replay_cmd(mut args: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut addr: Option<String> = None;
    for arg in args.by_ref() {
        match arg.as_str() {
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other if addr.is_none() && !other.starts_with("--") => addr = Some(other.to_string()),
            other => {
                eprintln!("unknown replay argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let (Some(file), Some(addr)) = (file, addr) else {
        eprintln!("replay needs a traffic log and HOST:PORT");
        std::process::exit(2);
    };
    let bytes = std::fs::read(&file).unwrap_or_else(|e| {
        eprintln!("reading {file}: {e}");
        std::process::exit(2);
    });
    let entries = nav_store::read_record_log(&bytes).unwrap_or_else(|e| {
        eprintln!("{file}: {e}");
        std::process::exit(2);
    });
    let mut client = NetClient::connect(addr.as_str()).unwrap_or_else(|e| {
        eprintln!("connecting {addr}: {e}");
        std::process::exit(1);
    });
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
                let (answers, _) = client.request(req).unwrap_or_else(|e| {
                    eprintln!("replay entry {i} failed: {e}");
                    std::process::exit(1);
                });
                let identical = answers.len() == resp.answers.len()
                    && answers.iter().zip(&resp.answers).all(|(a, b)| a.bits_eq(b));
                if !identical {
                    eprintln!("replay DIVERGED from recording at entry {i}");
                    std::process::exit(1);
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
                other => {
                    eprintln!(
                        "replay entry {i}: recording holds a refusal but replay got {}",
                        match other {
                            Ok(_) => "an answer".to_string(),
                            Err(e) => e.to_string(),
                        }
                    );
                    std::process::exit(1);
                }
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

fn emit_net_bench(cfg: &ExpConfig, path: &str) {
    eprintln!(
        "[nav-engine] bench-tcp --bench-json mode={} seed={} threads={}",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads
    );
    let start = std::time::Instant::now();
    let json = render_net_bench(cfg);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    print!("{json}");
    eprintln!(
        "[nav-engine] bench-tcp json -> {path} in {:.1?}",
        start.elapsed()
    );
}

fn bench_json(mut args: impl Iterator<Item = String>) {
    let mut cfg = ExpConfig::default();
    let mut path = "BENCH_serve.json".to_string();
    let mut path_set = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--threads" => cfg.threads = expect_num(&mut args, "--threads"),
            "--seed" => cfg.seed = expect_num(&mut args, "--seed"),
            other if !path_set && !other.starts_with("--") => {
                path = other.to_string();
                path_set = true;
            }
            other => {
                eprintln!("unknown bench-json argument: {other}");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[nav-engine] bench-json mode={} seed={} threads={}",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads
    );
    let start = std::time::Instant::now();
    let json = render_serve_bench(&cfg);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    print!("{json}");
    eprintln!(
        "[nav-engine] bench-json -> {path} in {:.1?}",
        start.elapsed()
    );
}

fn scale_bench(mut args: impl Iterator<Item = String>) {
    let mut cfg = ExpConfig::default();
    let mut path = "BENCH_scale.json".to_string();
    let mut path_set = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--threads" => cfg.threads = expect_num(&mut args, "--threads"),
            "--seed" => cfg.seed = expect_num(&mut args, "--seed"),
            "--width" => cfg.width = expect_width(&mut args),
            other if !path_set && !other.starts_with("--") => {
                path = other.to_string();
                path_set = true;
            }
            other => {
                eprintln!("unknown scale-bench argument: {other}");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[nav-engine] scale-bench mode={} seed={} threads={} width={}",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads,
        cfg.width.label()
    );
    let start = std::time::Instant::now();
    let json = render_scale_bench(&cfg);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    print!("{json}");
    eprintln!(
        "[nav-engine] scale-bench -> {path} in {:.1?}",
        start.elapsed()
    );
}

fn chaos_bench(mut args: impl Iterator<Item = String>) {
    let mut cfg = ExpConfig::default();
    let mut path = "BENCH_fault.json".to_string();
    let mut path_set = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--threads" => cfg.threads = expect_num(&mut args, "--threads"),
            "--seed" => cfg.seed = expect_num(&mut args, "--seed"),
            other if !path_set && !other.starts_with("--") => {
                path = other.to_string();
                path_set = true;
            }
            other => {
                eprintln!("unknown chaos-bench argument: {other}");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[nav-engine] chaos-bench mode={} seed={} threads={}",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads
    );
    let start = std::time::Instant::now();
    let json = render_fault_bench(&cfg);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    print!("{json}");
    eprintln!(
        "[nav-engine] chaos-bench -> {path} in {:.1?}",
        start.elapsed()
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: nav-engine serve FILE [--threads N] [--seed S] [--cache-mb M] [--scheme NAME] [--sampler scalar|batched|ball-realized] [--admission lru|segmented] [--shards K] [--drop-p P] [--fault-epochs E] [--trace-every T] [--restore SNAPSHOT] [--json PATH]\n       nav-engine serve-tcp FILE|--restore SNAPSHOT [--addr HOST:PORT] [--threads N] [--seed S] [--cache-mb M] [--scheme NAME] [--admission lru|segmented] [--shards K] [--drop-p P] [--fault-epochs E] [--trace-every T] [--workers W] [--max-queries Q] [--record LOG]\n       nav-engine bench-tcp FILE --addr HOST:PORT [--json PATH]\n       nav-engine bench-tcp --bench-json [PATH] [--quick] [--threads N] [--seed S]\n       nav-engine stats HOST:PORT [--handle H] [--json]\n       nav-engine snapshot HOST:PORT FILE [--handle H]\n       nav-engine replay LOG HOST:PORT\n       nav-engine gen FILE [--family F] [--n N] [--graph-seed S] [--queries C] [--theta T] [--hot H] [--zipf-seed Z] [--trials T] [--batch B] [--shards K]\n       nav-engine scale-bench [PATH] [--quick] [--threads N] [--seed S]\n       nav-engine chaos-bench [PATH] [--quick] [--threads N] [--seed S]\n       nav-engine --bench-json [PATH] [--quick] [--threads N] [--seed S]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => serve(args),
        Some("serve-tcp") => serve_tcp(args),
        Some("bench-tcp") => bench_tcp(args),
        Some("stats") => stats(args),
        Some("snapshot") => snapshot_cmd(args),
        Some("replay") => replay_cmd(args),
        Some("gen") => gen(args),
        Some("scale-bench") => scale_bench(args),
        Some("chaos-bench") => chaos_bench(args),
        Some("--bench-json") => bench_json(args),
        Some("--help") | Some("-h") | None => usage(),
        Some(other) => {
            eprintln!("unknown command: {other} (try --help)");
            usage();
        }
    }
}
