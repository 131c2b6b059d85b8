//! `servebench`: the repository's benchmark of the loopback serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload zipf-warm-tcp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` serves the workload through a `NetServer` on loopback with
//! the engine's observability off and prints the end-to-end metrics;
//! `--trace 1` is the separate traced run that prints the per-layer
//! metrics. Every run checks its answers against `nav-core` and prints,
//! as its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `servebench/README.md`.

mod check;
mod serve;
mod spec;
mod sys;
mod trace;

use nav_core::ball::BallScheme;
use nav_core::uniform::UniformScheme;
use nav_obs::ObsConfig;
use serve::Record;
use spec::{Check, Def, Inputs, SchemeKind, ENGINE_THREADS, SERVER_WORKERS};
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str =
    "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 (workloads: zipf-warm-tcp, scan-cold-1m, churn-zipf, ball-batched)";

/// Where each run writes its `nav-workload v1` input and its record,
/// relative to the directory it runs from.
const OUT_DIR: &str = "servebench/out";

struct Args {
    def: &'static Def,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut def = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} `{value}`");
        match flag.as_str() {
            "--workload" => def = Some(spec::find(&value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a duration"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("not a positive duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        def: def.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a run reports: the result line plus notes recorded beside it.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `"key": <json>` pairs for the run record.
    pub notes: Vec<(String, String)>,
}

/// `a / b`, or 0 when `b` is 0 (no cold rows, no ball draws …).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Checks `records` against `nav-core` with the workload's scheme.
pub fn check_answers(inputs: &Inputs, records: &[Record]) -> Result<check::Checked, String> {
    let g = serve::build_graph(&inputs.graph_spec());
    match inputs.def.scheme {
        SchemeKind::Uniform => check::verify(inputs, &g, &UniformScheme, records),
        SchemeKind::Ball => check::verify(inputs, &g, &BallScheme::new(&g), records),
    }
}

pub fn checked_note(checked: &Result<check::Checked, String>) -> String {
    match checked {
        Ok(c) => format!(
            "{{\"ok\": true, \"method\": \"{}\", \"queries\": {}, \"run_trials_prefix\": {}}}",
            c.method, c.queries, c.run_trials_prefix
        ),
        Err(e) => format!("{{\"ok\": false, \"error\": \"{e}\"}}"),
    }
}

pub fn greedy_note(t: &serve::Tally) -> String {
    format!(
        "{{\"mean_steps\": {}, \"success_rate\": {}}}",
        t.mean_steps(),
        t.success_rate()
    )
}

pub fn tail_note(t: &serve::Tail) -> String {
    format!(
        "{{\"percentile\": {}, \"windows\": {}, \"samples_per_window\": {}, \"beyond\": {}}}",
        t.percentile, t.windows, t.samples, t.beyond
    )
}

/// The untraced end-to-end run.
fn end_to_end(inputs: &Inputs, seconds: f64) -> Report {
    let def = inputs.def;
    let keep = matches!(def.check, Check::Sample(_));
    // The first set-up serves the run; the others only time set-up again,
    // after the peak resident set has been read, so that memory freed by
    // one set-up and not reused by the next cannot inflate it.
    let t0 = Instant::now();
    let mut live = serve::setup(inputs, ObsConfig::disabled(), keep);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let mut out = serve::closed_loop(inputs, &mut live, seconds, keep);
    let rss_mb = sys::peak_rss_mb();
    let mut records = std::mem::take(&mut live.warm_records);
    live.shutdown();
    for _ in 1..def.setups {
        let t0 = Instant::now();
        let again = serve::setup(inputs, ObsConfig::disabled(), keep);
        setup_s.push(t0.elapsed().as_secs_f64());
        again.shutdown();
    }
    records.append(&mut out.records);
    let checked = check_answers(inputs, &records);

    let tail = out.tail();
    let metrics = vec![
        metric("qps", "1/s", out.qps()),
        metric("latency_p50_ms", "ms", out.p50_ms()),
        metric("latency_tail_ms", "ms", tail.value_ms),
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MB", rss_mb),
        metric(
            "answered_frac",
            "frac",
            ratio((out.frames - out.failed) as f64, out.frames as f64),
        ),
    ];
    let notes = vec![
        ("checked".into(), checked_note(&checked)),
        ("latency_tail".into(), tail_note(&tail)),
        ("greedy".into(), greedy_note(&out.tally)),
        ("setup_s_samples".into(), format!("{setup_s:?}")),
        ("window_qps".into(), format!("{:?}", out.window_qps())),
        ("queries".into(), out.queries().to_string()),
        ("elapsed_s".into(), out.elapsed_s.to_string()),
    ];
    Report {
        correct: checked.is_ok(),
        attempted: out.frames,
        failed: out.failed,
        metrics,
        notes,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("servebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let def = args.def;
    let cores = nav_par::HostMeta::current().cores;
    if def.conns > cores {
        eprintln!(
            "servebench: {} needs {} client connections but this host has {cores} cores; refusing to oversubscribe",
            def.name, def.conns
        );
        std::process::exit(2);
    }
    let inputs = Inputs::generate(def, args.seed);
    std::fs::create_dir_all(OUT_DIR).expect("create output directory");
    let stem = format!("{OUT_DIR}/{}-seed{}", def.name, args.seed);
    std::fs::write(format!("{stem}.workload"), &inputs.text).expect("write workload file");

    let report = if args.trace {
        trace::traced(&inputs, args.seconds)
    } else {
        end_to_end(&inputs, args.seconds)
    };

    let mut record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {cores}, \"engine_threads\": {ENGINE_THREADS}, \"server_workers\": {SERVER_WORKERS}, \"client_connections\": {}, \"scheme\": \"{}\", \"sampler\": \"{}\", \"n\": {}, \"workload_file\": \"{stem}.workload\"",
        def.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        def.conns,
        def.scheme.label(),
        def.sampler.label(),
        def.n,
    );
    for (k, v) in &report.notes {
        let _ = write!(record, ", \"{k}\": {v}");
    }
    record.push('}');
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    std::fs::write(
        format!("{stem}-trace{}.json", args.trace as u8),
        format!("{{\"run\": {record}, \"result\": {result}}}\n"),
    )
    .expect("write run record");
    println!("{record}");
    println!("{result}");
    if !report.correct {
        std::process::exit(1);
    }
}
