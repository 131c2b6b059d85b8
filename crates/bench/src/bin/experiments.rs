//! The experiment binary: regenerates every table/figure of the
//! reproduction (EXPERIMENTS.md records a full run), and — in
//! `--bench-json` mode — the `BENCH_core.json` perf baseline of the
//! distance-oracle layer.
//!
//! ```text
//! cargo run -p nav-bench --release --bin experiments -- [--quick] [--exp e1,e7] [--threads N] [--seed S] [--sampler scalar|batched] [--width 64|128|256] [--drop-p P] [--fault-epochs E] [--csv]
//! cargo run -p nav-bench --release --bin experiments -- --bench-json [PATH] [--quick] [--threads N] [--seed S]
//! ```
//!
//! `--width` sets the MS-BFS lane width every batched traversal runs at
//! (64/128/256 concurrent sources per word block). Distances are
//! bit-identical at every width; the knob only moves wall-clock.
//!
//! `--sampler batched` routes every trial sweep (e.g. the E1/E7 ball
//! sweeps) through the batched per-step sampler — the ball scheme then
//! draws from ball rows built in shared MS-BFS passes instead of one
//! truncated BFS per visited node; schemes without a batched backend fall back to
//! the scalar path unchanged.
//!
//! `--drop-p P` inserts `P` into E10's link-failure sweep and
//! `--fault-epochs E` appends E10's per-epoch node-churn table — both
//! knobs of the fault-injection experiment, no recompile needed.

use nav_bench::benchjson::render_core_bench;
use nav_bench::experiments::run_experiments;
use nav_bench::ExpConfig;
use nav_core::sampler::SamplerMode;

fn main() {
    let mut cfg = ExpConfig::default();
    let mut which: Vec<String> = Vec::new();
    let mut csv = false;
    let mut bench_json: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--csv" => csv = true,
            "--bench-json" => {
                // Optional output path; defaults to BENCH_core.json.
                let path = match args.peek() {
                    Some(p) if !p.starts_with("--") => args.next().expect("peeked"),
                    _ => "BENCH_core.json".to_string(),
                };
                bench_json = Some(path);
            }
            "--exp" => {
                let v = args.next().expect("--exp needs a value, e.g. e1,e7");
                which.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--threads" => {
                cfg.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--sampler" => {
                cfg.sampler = args
                    .next()
                    .as_deref()
                    .and_then(SamplerMode::parse)
                    .expect("--sampler needs scalar|batched");
            }
            "--width" => {
                cfg.width = args
                    .next()
                    .as_deref()
                    .and_then(nav_graph::msbfs::LaneWidth::parse)
                    .expect("--width needs 64|128|256");
            }
            "--drop-p" => {
                let p: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--drop-p needs a probability");
                assert!(
                    (0.0..=1.0).contains(&p),
                    "--drop-p must be in [0, 1], got {p}"
                );
                cfg.drop_p = Some(p);
            }
            "--fault-epochs" => {
                cfg.fault_epochs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fault-epochs needs an epoch count");
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [--exp e1,..,e10] [--threads N] [--seed S] [--sampler scalar|batched] [--drop-p P] [--fault-epochs E] [--csv]\n       experiments --bench-json [PATH] [--quick] [--threads N] [--seed S]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[experiments] mode={} seed={} threads={} sampler={} width={}",
        if cfg.quick { "quick" } else { "full" },
        cfg.seed,
        cfg.threads,
        cfg.sampler.label(),
        cfg.width.label()
    );
    let start = std::time::Instant::now();
    if let Some(path) = bench_json {
        if !which.is_empty() || csv {
            eprintln!("[experiments] note: --exp/--csv are ignored in --bench-json mode");
        }
        let json = render_core_bench(&cfg);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        print!("{json}");
        eprintln!(
            "[experiments] bench-json -> {path} in {:.1?}",
            start.elapsed()
        );
        return;
    }
    let tables = run_experiments(&cfg, &which);
    for t in &tables {
        if csv {
            println!("{}", t.to_csv());
        } else {
            println!("{}", t.to_markdown());
        }
    }
    eprintln!("[experiments] total {:.1?}", start.elapsed());
}
