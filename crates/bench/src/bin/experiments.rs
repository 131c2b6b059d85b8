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
use nav_bench::measure::{emit_bench, parse_bench_args, BENCH_USAGE};
use nav_bench::ExpConfig;
use nav_core::sampler::SamplerMode;
use nav_graph::msbfs::LaneWidth;

/// The next argument parsed by `parse`, or exit 2 with `need`.
fn value<T>(
    args: &mut impl Iterator<Item = String>,
    need: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    args.next().as_deref().and_then(parse).unwrap_or_else(|| {
        eprintln!("{need}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bench-json") {
        let rest = args.into_iter().filter(|a| a != "--bench-json");
        let (cfg, path) = parse_bench_args(rest, "BENCH_core.json").unwrap_or_else(|e| {
            eprintln!("experiments --bench-json: {e} (usage: --bench-json {BENCH_USAGE})");
            std::process::exit(2)
        });
        return emit_bench("experiments bench-json", &path, &cfg, render_core_bench);
    }
    let mut cfg = ExpConfig::default();
    let mut which: Vec<String> = Vec::new();
    let mut csv = false;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--csv" => csv = true,
            "--exp" => {
                let v = value(&mut args, "--exp needs a value, e.g. e1,e7", |v| {
                    Some(v.to_string())
                });
                which.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--threads" => {
                cfg.threads = value(&mut args, "--threads needs a number", |v| v.parse().ok())
            }
            "--seed" => cfg.seed = value(&mut args, "--seed needs a number", |v| v.parse().ok()),
            "--sampler" => {
                cfg.sampler = value(
                    &mut args,
                    "--sampler needs scalar|batched",
                    SamplerMode::parse,
                )
            }
            "--width" => cfg.width = value(&mut args, "--width needs 64|128|256", LaneWidth::parse),
            "--drop-p" => {
                cfg.drop_p = Some(value(
                    &mut args,
                    "--drop-p needs a probability in [0, 1]",
                    |v| v.parse().ok().filter(|p: &f64| (0.0..=1.0).contains(p)),
                ))
            }
            "--fault-epochs" => {
                cfg.fault_epochs = value(&mut args, "--fault-epochs needs an epoch count", |v| {
                    v.parse().ok()
                })
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [--exp e1,..,e10] [--threads N] [--seed S] [--sampler scalar|batched] [--width 64|128|256] [--drop-p P] [--fault-epochs E] [--csv]\n       experiments --bench-json {BENCH_USAGE}"
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
    let tables = run_experiments(&cfg, &which).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    for t in &tables {
        if csv {
            println!("{}", t.to_csv());
        } else {
            println!("{}", t.to_markdown());
        }
    }
    eprintln!("[experiments] total {:.1?}", start.elapsed());
}
