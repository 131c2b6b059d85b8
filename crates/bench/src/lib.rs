//! # nav-bench — the experiment harness
//!
//! Regenerates every "table/figure" of the reproduction (the paper is a
//! theory paper with no empirical section, so the experiment suite defined
//! in DESIGN.md §4 plays that role). Each `eN_*` function returns rendered
//! tables; the `experiments` binary prints them with each experiment's
//! wall time. The `nav-engine` binary fronts the serving subsystem: it
//! replays workload files through a persistent [`nav_engine::Engine`]
//! (mapping workload graph specs onto [`workloads::Workload`] builders),
//! in-process or over `nav-net` TCP.
//!
//! Five emitters write the checked-in `BENCH_*.json` baselines —
//! [`benchjson`] (core), [`servejson`] (serve), [`netjson`] (net),
//! [`faultjson`] (fault) and [`scalejson`] (scale) — and share one core in
//! [`measure`]: one header writer, one zipf-stream builder, one
//! in-process replay, and one bit-identity gate that checks every
//! answer against [`run_trials`](nav_core::trial::run_trials) before a
//! number is rendered. [`measure::parse_bench_args`] and
//! [`measure::emit_bench`] are the one command line of all five:
//! `[PATH] [--quick] [--threads N] [--seed S]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchjson;
pub mod experiments;
pub mod faultjson;
pub mod measure;
pub mod netjson;
pub mod scalejson;
pub mod servejson;
pub mod workloads;

/// Global experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Quick mode: smaller sweeps and fewer trials (CI-friendly).
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Per-step contact-sampling backend for every trial sweep
    /// (`--sampler`): scalar reference path, or the batched ball-row
    /// cache where the scheme supports it.
    pub sampler: nav_core::sampler::SamplerMode,
    /// Extra link-drop probability for the fault experiment
    /// (`--drop-p`): E10 inserts this point into its drop grid, so a
    /// probability of interest can be measured without recompiling.
    pub drop_p: Option<f64>,
    /// Node-churn epochs for the fault experiment (`--fault-epochs`):
    /// when positive, E10 appends a per-epoch churn table (seeded
    /// [`nav_core::faulty::FailurePlan`], 5% of nodes down per epoch).
    pub fault_epochs: u32,
    /// MS-BFS lane width (`--width`): 64, 128, or 256 concurrent
    /// sources per word-block in every batched traversal. Distances are
    /// bit-identical at every width; wider blocks trade register
    /// pressure for fewer passes.
    pub width: nav_graph::msbfs::LaneWidth,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            quick: false,
            seed: 20070610, // SPAA 2007, San Diego
            threads: nav_par::default_threads(),
            sampler: nav_core::sampler::SamplerMode::Scalar,
            drop_p: None,
            fault_epochs: 0,
            width: nav_graph::msbfs::LaneWidth::default(),
        }
    }
}

impl ExpConfig {
    /// The dyadic n-sweep for scaling experiments.
    pub fn sweep(&self) -> Vec<usize> {
        if self.quick {
            vec![256, 1024, 4096]
        } else {
            vec![256, 512, 1024, 2048, 4096, 8192, 16384, 32768]
        }
    }

    /// Trials per (s, t) pair.
    pub fn trials(&self) -> usize {
        if self.quick {
            24
        } else {
            96
        }
    }

    /// Extra random pairs besides the extremal ones.
    pub fn random_pairs(&self) -> usize {
        if self.quick {
            2
        } else {
            6
        }
    }

    /// Deterministic per-measurement seed.
    pub fn seed_for(&self, tag: &str, n: usize) -> u64 {
        let mut h = 0xcbf29ce484222325u64; // FNV-1a
        for b in tag.bytes().chain(n.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.seed ^ h
    }
}
