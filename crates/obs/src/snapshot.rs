//! The per-engine observability registry and its snapshot.
//!
//! A [`Registry`] is the mutable state one engine owns: configuration,
//! the deterministic trace sampler, per-stage histograms, and the trace
//! ring. An [`ObsSnapshot`] is its frozen, mergeable view — the network
//! server adds its own wire-stage samples, and the result renders as a
//! plain-text `/metrics`-style exposition, a JSON object, or an aligned
//! table.

use crate::hist::LogHistogram;
use crate::stage::{Stage, StageSet};
use crate::trace::{QueryTrace, TraceRing, TraceSampler};

/// Observability knobs, carried alongside the engine config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record per-stage latency histograms (one branch per stage when
    /// off).
    pub stages: bool,
    /// Trace roughly one query in this many (0 disables tracing).
    pub trace_every: u64,
    /// Retained traces per engine (ring buffer capacity).
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            stages: true,
            trace_every: 1024,
            trace_capacity: 256,
        }
    }
}

impl ObsConfig {
    /// Everything off: no stage timing, no traces.
    pub fn disabled() -> Self {
        ObsConfig {
            stages: false,
            trace_every: 0,
            trace_capacity: 0,
        }
    }
}

/// The mutable observability state one engine (or server front) owns.
#[derive(Clone, Debug)]
pub struct Registry {
    cfg: ObsConfig,
    sampler: TraceSampler,
    stages: StageSet,
    traces: TraceRing,
}

impl Registry {
    /// A registry seeded so the trace sampler is deterministic per
    /// engine seed.
    pub fn new(cfg: ObsConfig, seed: u64) -> Self {
        Registry {
            cfg,
            sampler: TraceSampler::new(seed, cfg.trace_every),
            stages: StageSet::new(),
            traces: TraceRing::new(cfg.trace_capacity),
        }
    }

    /// Whether stage spans should time (the hot-path branch).
    #[inline]
    pub fn stages_enabled(&self) -> bool {
        self.cfg.stages
    }

    /// The trace sampler, by value (it is `Copy`) so worker closures can
    /// consult it without borrowing the registry.
    #[inline]
    pub fn sampler(&self) -> TraceSampler {
        self.sampler
    }

    /// Mutable access for the stage timers to record into.
    #[inline]
    pub fn stages_mut(&mut self) -> &mut StageSet {
        &mut self.stages
    }

    /// Records one sampled query trace.
    pub fn record_trace(&mut self, t: QueryTrace) {
        self.traces.push(t);
    }

    /// Freezes the current state into a snapshot.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            stages: self
                .stages
                .non_empty()
                .map(|(s, h)| (s, h.clone()))
                .collect(),
            traces: self.traces.snapshot(),
            trace_every: self.cfg.trace_every,
            traces_recorded: self.traces.total(),
        }
    }
}

/// A frozen view of a registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Per-stage histograms, non-empty stages only, wire-id order.
    pub stages: Vec<(Stage, LogHistogram)>,
    /// Retained sampled traces, oldest first.
    pub traces: Vec<QueryTrace>,
    /// The sampling period in force.
    pub trace_every: u64,
    /// Lifetime traces recorded, including ones the ring evicted.
    pub traces_recorded: u64,
}

impl ObsSnapshot {
    /// The histogram for one stage, if it has samples.
    pub fn stage(&self, stage: Stage) -> Option<&LogHistogram> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, h)| h)
    }

    /// Records stage histograms from a live [`StageSet`] (the network
    /// server folds its wire stages into the engine snapshot this way).
    pub fn merge_stage_set(&mut self, set: &StageSet) {
        for (stage, h) in set.non_empty() {
            match self.stages.iter_mut().find(|(s, _)| s == &stage) {
                Some((_, mine)) => mine.merge(h),
                None => self.stages.push((stage, h.clone())),
            }
        }
        self.stages.sort_by_key(|(s, _)| s.wire_id());
    }

    /// Renders the snapshot as a plain-text `/metrics`-style exposition:
    /// one `summary` family for stage latencies plus trace gauges, with
    /// retained traces as comment lines.
    pub fn render_text(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE nav_stage_latency_ms summary");
        for (stage, h) in &self.stages {
            let label = stage.label();
            for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(
                        out,
                        "nav_stage_latency_ms{{stage=\"{label}\",quantile=\"{tag}\"}} {v:.6}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "nav_stage_latency_ms_sum{{stage=\"{label}\"}} {:.6}",
                h.sum()
            );
            let _ = writeln!(
                out,
                "nav_stage_latency_ms_count{{stage=\"{label}\"}} {}",
                h.count()
            );
        }
        let _ = writeln!(out, "# TYPE nav_traces_recorded counter");
        let _ = writeln!(out, "nav_traces_recorded {}", self.traces_recorded);
        let _ = writeln!(out, "# TYPE nav_trace_every gauge");
        let _ = writeln!(out, "nav_trace_every {}", self.trace_every);
        for t in &self.traces {
            let _ = writeln!(
                out,
                "# trace index={} s={} t={} cache_hit={} trials={} trials_ms={:.6} dropped_links={} rerouted_hops={}",
                t.index,
                t.s,
                t.t,
                t.cache_hit,
                t.trials,
                t.trials_ms,
                t.dropped_links,
                t.rerouted_hops
            );
        }
    }

    /// Renders the snapshot as one JSON object (hand-rolled, like every
    /// other emitter in this dependency-free workspace).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\"trace_every\": ");
        let _ = write!(out, "{}", self.trace_every);
        let _ = write!(out, ", \"traces_recorded\": {}", self.traces_recorded);
        out.push_str(", \"stages\": {");
        for (i, (stage, h)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let s = h.summary().expect("non-empty stage histogram");
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"sum_ms\": {:.6}, \"mean\": {:.6}, \"min\": {:.6}, \"p50\": {:.6}, \"p90\": {:.6}, \"p99\": {:.6}, \"max\": {:.6}}}",
                stage.label(),
                s.count,
                h.sum(),
                s.mean,
                s.min,
                s.p50,
                s.p90,
                s.p99,
                s.max
            );
        }
        out.push_str("}, \"traces\": [");
        for (i, t) in self.traces.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"index\": {}, \"s\": {}, \"t\": {}, \"cache_hit\": {}, \"trials\": {}, \"trials_ms\": {:.6}, \"dropped_links\": {}, \"rerouted_hops\": {}}}",
                t.index,
                t.s,
                t.t,
                t.cache_hit,
                t.trials,
                t.trials_ms,
                t.dropped_links,
                t.rerouted_hops
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders an aligned per-stage latency table for bench logs.
    pub fn stage_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "stage", "count", "p50 ms", "p90 ms", "p99 ms", "total ms"
        );
        for (stage, h) in &self.stages {
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>12.4} {:>12.4} {:>12.4} {:>12.3}",
                stage.label(),
                h.count(),
                h.quantile(0.5).unwrap_or(0.0),
                h.quantile(0.9).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
                h.sum()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_with(stage: Stage, samples: &[f64]) -> ObsSnapshot {
        let mut reg = Registry::new(ObsConfig::default(), 1);
        for &s in samples {
            reg.stages_mut().record(stage, s);
        }
        reg.snapshot()
    }

    #[test]
    fn registry_snapshot_carries_state() {
        let mut reg = Registry::new(
            ObsConfig {
                stages: true,
                trace_every: 8,
                trace_capacity: 4,
            },
            99,
        );
        assert!(reg.stages_enabled());
        reg.stages_mut().record(Stage::Trials, 0.5);
        reg.record_trace(QueryTrace {
            index: 3,
            s: 0,
            t: 1,
            cache_hit: true,
            trials: 8,
            trials_ms: 0.25,
            dropped_links: 0,
            rerouted_hops: 0,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.trace_every, 8);
        assert_eq!(snap.traces_recorded, 1);
        assert_eq!(snap.traces.len(), 1);
        assert_eq!(snap.stage(Stage::Trials).unwrap().count(), 1);
        assert!(snap.stage(Stage::Admission).is_none());
    }

    #[test]
    fn text_exposition_shape() {
        let snap = snapshot_with(Stage::Trials, &[1.0, 2.0, 4.0]);
        let mut text = String::new();
        snap.render_text(&mut text);
        assert!(text.contains("# TYPE nav_stage_latency_ms summary"));
        assert!(text.contains("nav_stage_latency_ms{stage=\"trials\",quantile=\"0.5\"}"));
        assert!(text.contains("nav_stage_latency_ms_count{stage=\"trials\"} 3"));
        assert!(text.contains("nav_traces_recorded 0"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line");
            value.parse::<f64>().expect("numeric value");
        }
    }

    #[test]
    fn json_shape() {
        let mut snap = snapshot_with(Stage::Encode, &[0.25]);
        snap.traces.push(QueryTrace {
            index: 7,
            s: 1,
            t: 2,
            cache_hit: true,
            trials: 3,
            trials_ms: 0.05,
            dropped_links: 1,
            rerouted_hops: 0,
        });
        let j = snap.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"trace_every\"",
            "\"stages\"",
            "\"encode\"",
            "\"p99\"",
            "\"traces\"",
            "\"cache_hit\": true",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn stage_table_has_header_and_rows() {
        let snap = snapshot_with(Stage::ColdFill, &[3.0]);
        let table = snap.stage_table();
        let mut lines = table.lines();
        assert!(lines.next().unwrap().contains("p99 ms"));
        assert!(lines.next().unwrap().starts_with("cold_fill"));
    }
}
