//! The eight experiments of the reproduction (DESIGN.md §4).

use crate::measure::{fit_summary, fitted_exponent, measure};
use crate::workloads::{interval_instance, theorem2_for, Workload};
use crate::ExpConfig;
use nav_analysis::fit::crossover;
use nav_analysis::table::{fnum, Table};
use nav_core::ball::BallScheme;
use nav_core::exact::exact_expected_steps;
use nav_core::kleinberg::KleinbergScheme;
use nav_core::matrix::{AugmentationMatrix, MatrixScheme};
use nav_core::theorem1::adversarial_path_instance;
use nav_core::theorem3::{budget_for_epsilon, RestrictedLabelScheme};
use nav_core::uniform::UniformScheme;
use nav_gen::{classic, grid, tree};
use nav_par::rng::seeded_rng;

/// E1 — the uniform scheme is `O(√n)`-universal (Peleg). Sweeps four
/// families; the fitted exponent on the path must sit near 0.5.
pub fn e1_uniform_universal(cfg: &ExpConfig) -> Vec<Table> {
    let mut table = Table::new(
        "E1 (Table 1) — uniform scheme: greedy diameter vs n (paper: O(√n) for all G; Θ(√n) on the path)",
        &["family", "n", "diam(G)", "E[steps] max-pair", "E[steps] mean"],
    );
    let mut summary = Table::new(
        "E1 summary — fitted exponents (reference: γ ≤ 0.5; path ≈ 0.5)",
        &["family", "fit"],
    );
    for w in [
        Workload::Path,
        Workload::Grid2d,
        Workload::RandomTree,
        Workload::Gnp,
    ] {
        let mut pts = Vec::new();
        for n in cfg.sweep() {
            let g = w.build(n, cfg.seed_for(w.name(), n));
            let p = measure(&g, &UniformScheme, cfg, &format!("e1-{}", w.name()));
            table.row(&[
                w.name().into(),
                p.n.to_string(),
                p.diameter.to_string(),
                fnum(p.max_mean),
                fnum(p.grand_mean),
            ]);
            pts.push(p);
        }
        summary.row(&[w.name().into(), fit_summary(&pts)]);
    }
    vec![table, summary]
}

/// E2 — Theorem 1: for any matrix, the adversarial path labeling forces
/// `Ω(√n)`. Exact expected steps (no Monte-Carlo noise) between the
/// proof's `(s, t)` pair at distance `|S|/3 = √n/3`.
pub fn e2_theorem1_adversarial(cfg: &ExpConfig) -> Vec<Table> {
    let sizes: &[usize] = if cfg.quick {
        &[64, 256]
    } else {
        &[64, 256, 1024]
    };
    let mut table = Table::new(
        "E2 (Table 2) — Theorem 1: adversarial labeling vs identity labeling (exact E[steps] for the proof's (s,t) at distance √n/3)",
        &[
            "matrix", "n", "dist(s,t)", "mass(I)", "E adversarial", "E identity",
            "adv/dist",
        ],
    );
    for n in sizes {
        let n = *n;
        let g = classic::path(n).expect("path");
        let builders: Vec<(&str, AugmentationMatrix)> = vec![
            ("uniform", AugmentationMatrix::uniform(n)),
            ("ancestor", AugmentationMatrix::ancestor(n)),
            ("label-harmonic", AugmentationMatrix::label_harmonic(n)),
            (
                "random",
                AugmentationMatrix::random(n, 8, &mut seeded_rng(cfg.seed_for("e2-random", n))),
            ),
        ];
        for (name, matrix) in builders {
            let mut rng = seeded_rng(cfg.seed_for(&format!("e2-{name}"), n));
            let inst = adversarial_path_instance(&matrix, &mut rng);
            let dist = (inst.t - inst.s) as f64;
            let adv_scheme =
                MatrixScheme::new(format!("{name}-adv"), matrix.clone(), inst.labeling.clone());
            let e_adv =
                exact_expected_steps(&g, &adv_scheme, inst.t).expect("connected")[inst.s as usize];
            let id_scheme = MatrixScheme::name_independent(format!("{name}-id"), matrix, n);
            let e_id =
                exact_expected_steps(&g, &id_scheme, inst.t).expect("connected")[inst.s as usize];
            table.row(&[
                name.into(),
                n.to_string(),
                fnum(dist),
                fnum(inst.sparse.internal_mass),
                fnum(e_adv),
                fnum(e_id),
                fnum(e_adv / dist.max(1.0)),
            ]);
        }
    }
    vec![table]
}

/// E3 — Corollary 1 (trees): the (M, L) scheme routes in `O(log³ n)`.
pub fn e3_theorem2_trees(cfg: &ExpConfig) -> Vec<Table> {
    let mut table = Table::new(
        "E3 (Table 3) — Theorem 2 on trees (paper: O(log³ n); uniform stays Θ(√n)-ish)",
        &[
            "tree",
            "n",
            "(M,L) steps",
            "uniform steps",
            "steps/log³n",
            "uni/(M,L)",
        ],
    );
    let mut summary = Table::new(
        "E3 summary — fitted exponents ((M,L) reference: γ ≈ 0 · polylog; uniform ≈ 0.5)",
        &["tree", "(M,L) fit", "uniform fit"],
    );
    type TreeBuilder = Box<dyn Fn(usize, u64) -> nav_graph::Graph>;
    let builders: Vec<(&str, TreeBuilder)> = vec![
        (
            "random-tree",
            Box::new(|n, seed| tree::random_tree(n, &mut seeded_rng(seed)).expect("tree")),
        ),
        (
            "binary-tree",
            Box::new(|n, _| tree::complete_kary_tree(2, n).expect("kary")),
        ),
        (
            "caterpillar",
            Box::new(|n, _| tree::caterpillar((n / 2).max(1), n - (n / 2).max(1)).expect("cat")),
        ),
    ];
    for (name, build) in builders {
        let mut pts_t2 = Vec::new();
        let mut pts_uni = Vec::new();
        for n in cfg.sweep() {
            let g = build(n, cfg.seed_for(name, n));
            let t2 = theorem2_for(&g);
            let p2 = measure(&g, &t2, cfg, &format!("e3-{name}-t2"));
            let pu = measure(&g, &UniformScheme, cfg, &format!("e3-{name}-uni"));
            let log3 = (n as f64).log2().powi(3);
            table.row(&[
                name.into(),
                n.to_string(),
                fnum(p2.max_mean),
                fnum(pu.max_mean),
                fnum(p2.max_mean / log3),
                fnum(pu.max_mean / p2.max_mean.max(1e-9)),
            ]);
            pts_t2.push(p2);
            pts_uni.push(pu);
        }
        summary.row(&[name.into(), fit_summary(&pts_t2), fit_summary(&pts_uni)]);
    }
    vec![table, summary]
}

/// E4 — Corollary 1 (AT-free via interval graphs): `O(log² n)` with the
/// clique-path (length ≤ 1) decomposition.
pub fn e4_theorem2_interval(cfg: &ExpConfig) -> Vec<Table> {
    let mut table = Table::new(
        "E4 (Table 4) — Theorem 2 on interval graphs (paper: O(log² n) via pathshape ≤ 1)",
        &["n", "m", "(M,L) steps", "uniform steps", "steps/log²n"],
    );
    let mut pts_t2 = Vec::new();
    let mut pts_uni = Vec::new();
    for n in cfg.sweep() {
        let (g, intervals) = interval_instance(n, cfg.seed_for("e4", n));
        let pd = nav_decomp::interval_pd::from_intervals(&intervals);
        let t2 = nav_core::theorem2::Theorem2Scheme::new(&g, &pd);
        let p2 = measure(&g, &t2, cfg, "e4-t2");
        let pu = measure(&g, &UniformScheme, cfg, "e4-uni");
        let log2n = (g.num_nodes() as f64).log2().powi(2);
        table.row(&[
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            fnum(p2.max_mean),
            fnum(pu.max_mean),
            fnum(p2.max_mean / log2n),
        ]);
        pts_t2.push(p2);
        pts_uni.push(pu);
    }
    let mut summary = Table::new(
        "E4 summary — fitted exponents ((M,L) reference ≈ 0 · polylog)",
        &["scheme", "fit"],
    );
    summary.row(&["theorem2(M,L)".into(), fit_summary(&pts_t2)]);
    summary.row(&["uniform".into(), fit_summary(&pts_uni)]);
    vec![table, summary]
}

/// E5 — Theorem 2's fallback: on large-pathshape graphs the U half keeps
/// the scheme within a constant factor of the uniform scheme's O(√n).
pub fn e5_theorem2_fallback(cfg: &ExpConfig) -> Vec<Table> {
    let mut table = Table::new(
        "E5 (Table 5) — Theorem 2 fallback on large-pathshape graphs (paper: never worse than O(√n))",
        &["family", "n", "(M,L) steps", "uniform steps", "(M,L)/uniform"],
    );
    let sizes: Vec<usize> = if cfg.quick {
        vec![1024, 4096]
    } else {
        vec![1024, 4096, 16384]
    };
    for fam in ["grid2d", "hypercube", "torus2d"] {
        for &n in &sizes {
            let g = match fam {
                "grid2d" => {
                    let side = (n as f64).sqrt().round() as usize;
                    grid::grid2d(side, side).expect("grid")
                }
                "hypercube" => {
                    let d = (n as f64).log2().round() as u32;
                    grid::hypercube(d).expect("hypercube")
                }
                _ => {
                    let side = (n as f64).sqrt().round() as usize;
                    grid::torus2d(side, side).expect("torus")
                }
            };
            let t2 = theorem2_for(&g);
            let p2 = measure(&g, &t2, cfg, &format!("e5-{fam}-t2"));
            let pu = measure(&g, &UniformScheme, cfg, &format!("e5-{fam}-uni"));
            table.row(&[
                fam.into(),
                g.num_nodes().to_string(),
                fnum(p2.max_mean),
                fnum(pu.max_mean),
                fnum(p2.max_mean / pu.max_mean.max(1e-9)),
            ]);
        }
    }
    vec![table]
}

/// E6 — Theorem 3: shrinking the label budget to `n^ε` degrades the
/// hierarchy scheme toward `Ω(n^{(1−ε)/3})` on the path.
pub fn e6_theorem3_labels(cfg: &ExpConfig) -> Vec<Table> {
    let sizes: Vec<usize> = if cfg.quick {
        vec![1024, 4096]
    } else {
        vec![1024, 4096, 16384, 65536]
    };
    let epsilons = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut table = Table::new(
        "E6 (Table 6) — Theorem 3: label budget k = n^ε on the path (lower bound Ω(n^β), β < (1−ε)/3)",
        &["ε", "n", "k labels", "steps (max-pair)"],
    );
    let mut summary = Table::new(
        "E6 summary — measured exponent vs the (1−ε)/3 lower-bound reference",
        &["ε", "measured γ", "reference (1−ε)/3"],
    );
    for &eps in &epsilons {
        let mut pts = Vec::new();
        for &n in &sizes {
            let g = classic::path(n).expect("path");
            let pd = nav_decomp::construct::path_graph_pd(n);
            let k = budget_for_epsilon(n, eps);
            let scheme = RestrictedLabelScheme::new(&g, &pd, k);
            let p = measure(&g, &scheme, cfg, &format!("e6-{eps}"));
            table.row(&[
                format!("{eps:.2}"),
                n.to_string(),
                scheme.num_labels().to_string(),
                fnum(p.max_mean),
            ]);
            pts.push(p);
        }
        let gamma = fitted_exponent(&pts).unwrap_or(f64::NAN);
        summary.row(&[
            format!("{eps:.2}"),
            format!("{gamma:.3}"),
            format!("{:.3}", (1.0 - eps) / 3.0),
        ]);
    }
    vec![table, summary]
}

/// E7 — **the headline**: Theorem 4's ball scheme overcomes the √n
/// barrier on every family; uniform stays at √n on the hard ones.
pub fn e7_ball_headline(cfg: &ExpConfig) -> Vec<Table> {
    let mut table = Table::new(
        "E7 (Figure 1) — ball scheme (Õ(n^{1/3})) vs uniform (Θ(√n)): greedy-diameter estimate vs n",
        &["family", "n", "uniform", "ball", "uniform/ball"],
    );
    let mut summary = Table::new(
        "E7 summary — fitted exponents (ball must stay well below 0.5 everywhere; crossover n where ball wins)",
        &["family", "uniform fit", "ball fit", "crossover n"],
    );
    for w in [
        Workload::Path,
        Workload::Lollipop,
        Workload::Grid2d,
        Workload::RandomTree,
        Workload::Comb,
    ] {
        let mut uni_pts: Vec<(f64, f64)> = Vec::new();
        let mut ball_pts: Vec<(f64, f64)> = Vec::new();
        let mut points_u = Vec::new();
        let mut points_b = Vec::new();
        for n in cfg.sweep() {
            let g = w.build(n, cfg.seed_for(w.name(), n));
            let ball = BallScheme::new(&g);
            let pu = measure(&g, &UniformScheme, cfg, &format!("e7-{}-uni", w.name()));
            let pb = measure(&g, &ball, cfg, &format!("e7-{}-ball", w.name()));
            table.row(&[
                w.name().into(),
                g.num_nodes().to_string(),
                fnum(pu.max_mean),
                fnum(pb.max_mean),
                fnum(pu.max_mean / pb.max_mean.max(1e-9)),
            ]);
            uni_pts.push((g.num_nodes() as f64, pu.max_mean));
            ball_pts.push((g.num_nodes() as f64, pb.max_mean));
            points_u.push(pu);
            points_b.push(pb);
        }
        let cross = crossover(&ball_pts, &uni_pts)
            .map(|n| format!("{n:.0}"))
            .unwrap_or_else(|| "-".into());
        summary.row(&[
            w.name().into(),
            fit_summary(&points_u),
            fit_summary(&points_b),
            cross,
        ]);
    }
    vec![table, summary]
}

/// E8 — context: the class-specific Kleinberg scheme on a 2-d torus.
/// At reachable lattice sizes the classic U-shape lives in the **scaling
/// exponent**: γ(α = d = 2) is the smallest (polylog ⇒ γ ≈ 0), while
/// both α < 2 and α > 2 grow polynomially — Kleinberg's figure in
/// exponent form.
pub fn e8_kleinberg_alpha(cfg: &ExpConfig) -> Vec<Table> {
    let sides: Vec<usize> = if cfg.quick {
        vec![16, 32, 64]
    } else {
        vec![16, 32, 64, 128]
    };
    let alphas = [0.0, 1.0, 1.5, 2.0, 2.5, 3.0];
    let mut table = Table::new(
        "E8 (Table 7) — Kleinberg harmonic scheme on the 2-d torus: α sweep",
        &["side", "n", "α", "steps (max-pair)"],
    );
    let mut summary = Table::new(
        "E8 summary — fitted exponent per α (classic optimum: smallest γ at α = d = 2)",
        &["α", "fit"],
    );
    let mut per_alpha: Vec<Vec<crate::measure::Point>> = vec![Vec::new(); alphas.len()];
    for &side in &sides {
        let g = grid::torus2d(side, side).expect("torus");
        for (ai, &alpha) in alphas.iter().enumerate() {
            let scheme = KleinbergScheme::new(alpha);
            let p = measure(&g, &scheme, cfg, &format!("e8-{alpha}"));
            table.row(&[
                side.to_string(),
                g.num_nodes().to_string(),
                format!("{alpha:.1}"),
                fnum(p.max_mean),
            ]);
            per_alpha[ai].push(p);
        }
    }
    for (ai, &alpha) in alphas.iter().enumerate() {
        summary.row(&[format!("{alpha:.1}"), fit_summary(&per_alpha[ai])]);
    }
    vec![table, summary]
}

/// E9 — ablation of the paper's central design choice `M = (A + U)/2`
/// ("the two matrices A and U can be run in parallel while preserving
/// their respective good behavior"): ancestor-only loses the `O(√n)`
/// fallback on large-pathshape graphs, uniform-only loses the hierarchy
/// win on small-pathshape graphs; the average keeps both.
pub fn e9_ablation(cfg: &ExpConfig) -> Vec<Table> {
    use nav_core::theorem2::{Theorem2Mode, Theorem2Scheme};
    let mut table = Table::new(
        "E9 (ablation) — Theorem 2 halves: combined (A+U)/2 vs A-only vs U-only",
        &["family", "n", "combined", "A-only", "U-only"],
    );
    let sizes: Vec<usize> = if cfg.quick {
        vec![1024, 4096]
    } else {
        vec![1024, 4096, 16384, 32768]
    };
    for fam in ["caterpillar", "path", "grid2d"] {
        for &n in &sizes {
            let g = match fam {
                "caterpillar" => {
                    tree::caterpillar((n / 2).max(1), n - (n / 2).max(1)).expect("cat")
                }
                "path" => classic::path(n).expect("path"),
                _ => Workload::Grid2d.build(n, cfg.seed_for("e9", n)),
            };
            let pd = if fam == "grid2d" {
                nav_decomp::construct::bfs_layers_pd(&g, 0)
            } else if fam == "path" {
                nav_decomp::construct::path_graph_pd(n)
            } else {
                nav_decomp::tree_pd::tree_path_decomposition(&g)
            };
            let mut cells = vec![fam.to_string(), g.num_nodes().to_string()];
            for mode in [
                Theorem2Mode::Combined,
                Theorem2Mode::AncestorOnly,
                Theorem2Mode::UniformOnly,
            ] {
                let scheme = Theorem2Scheme::with_mode(&g, &pd, mode);
                let p = measure(&g, &scheme, cfg, &format!("e9-{fam}-{mode:?}"));
                cells.push(fnum(p.max_mean));
            }
            table.row(&cells);
        }
    }
    vec![table]
}

/// E10 — robustness: independent long-link failures with probability `p`.
/// Greedy routing degrades *gracefully* (local links always make
/// progress): steps interpolate monotonically between the scheme's
/// performance and plain shortest-path walking.
pub fn e10_fault_tolerance(cfg: &ExpConfig) -> Vec<Table> {
    use nav_core::faulty::FaultyScheme;
    let n = if cfg.quick { 2048 } else { 8192 };
    let g = classic::path(n).expect("path");
    // `--drop-p` inserts a probability of interest into the sweep.
    let mut drops = vec![0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    if let Some(p) = cfg.drop_p {
        if !drops.contains(&p) {
            drops.push(p);
            drops.sort_by(|a, b| a.total_cmp(b));
        }
    }
    let mut table = Table::new(
        format!("E10 (fault injection) — link failure probability p on the {n}-node path (walking = {} steps)", n - 1),
        &["scheme", "p", "steps (max-pair)"],
    );
    for &p in &drops {
        let scheme = FaultyScheme::new(BallScheme::new(&g), p);
        let pt = measure(&g, &scheme, cfg, &format!("e10-ball-{p}"));
        table.row(&["ball".into(), format!("{p:.2}"), fnum(pt.max_mean)]);
    }
    for &p in &drops {
        let scheme = FaultyScheme::new(UniformScheme, p);
        let pt = measure(&g, &scheme, cfg, &format!("e10-uni-{p}"));
        table.row(&["uniform".into(), format!("{p:.2}"), fnum(pt.max_mean)]);
    }
    let mut tables = vec![table];
    if cfg.fault_epochs > 0 {
        tables.push(e10b_node_churn(cfg));
    }
    tables
}

/// E10b — `--fault-epochs E`: greedy routing under seeded node churn
/// (a [`FailurePlan`] with 5% of nodes down per epoch) on a 2-d grid,
/// where the 4-neighbour mesh leaves live detours. Per epoch: the
/// fraction of trials that reach the target, mean steps over successes,
/// and how many hops rerouted around a down fault-free winner. Every
/// number is a pure function of the seed — rerun it and the down sets,
/// walks and counters replay exactly.
fn e10b_node_churn(cfg: &ExpConfig) -> Table {
    use nav_core::faulty::FailurePlan;
    use nav_core::routing::{default_step_cap, GreedyRouter};
    let n = if cfg.quick { 1024 } else { 4096 };
    let g = Workload::Grid2d.build(n, cfg.seed_for("e10b", n));
    let n = g.num_nodes();
    let plan = FailurePlan::standard(cfg.seed_for("e10b-plan", n), cfg.fault_epochs);
    let mut table = Table::new(
        format!(
            "E10b (node churn) — uniform scheme on the {n}-node grid, {} epochs × 5% of nodes down",
            cfg.fault_epochs
        ),
        &["epoch", "success", "mean steps (ok)", "rerouted hops"],
    );
    let (s, t) = (0, (n - 1) as nav_graph::NodeId);
    let trials = cfg.trials();
    for epoch in 0..u64::from(cfg.fault_epochs) {
        let router = GreedyRouter::new(&g, t)
            .expect("grid target")
            .with_fault(plan, epoch);
        let mut rng = seeded_rng(cfg.seed_for("e10b-trials", n) ^ epoch);
        let (mut ok, mut steps) = (0usize, 0.0f64);
        for _ in 0..trials {
            let out = router.route(&UniformScheme, s, &mut rng, default_step_cap(&g), false);
            if out.reached {
                ok += 1;
                steps += f64::from(out.steps);
            }
        }
        let (_, rerouted) = router.fault_counts();
        table.row(&[
            epoch.to_string(),
            format!("{}/{trials}", ok),
            if ok > 0 {
                fnum(steps / ok as f64)
            } else {
                "—".into()
            },
            rerouted.to_string(),
        ]);
    }
    table
}

/// Runs the selected experiments (all when `which` is empty), returning
/// rendered tables in order.
///
/// # Errors
/// Refuses, before running anything, a selection naming an id outside
/// `e1`..`e10`; the message lists the valid ids.
pub fn run_experiments(cfg: &ExpConfig, which: &[String]) -> Result<Vec<Table>, String> {
    type ExpFn = fn(&ExpConfig) -> Vec<Table>;
    let all: [(&str, ExpFn); 10] = [
        ("e1", e1_uniform_universal),
        ("e2", e2_theorem1_adversarial),
        ("e3", e3_theorem2_trees),
        ("e4", e4_theorem2_interval),
        ("e5", e5_theorem2_fallback),
        ("e6", e6_theorem3_labels),
        ("e7", e7_ball_headline),
        ("e8", e8_kleinberg_alpha),
        ("e9", e9_ablation),
        ("e10", e10_fault_tolerance),
    ];
    if let Some(bad) = which
        .iter()
        .find(|w| !all.iter().any(|(name, _)| w.eq_ignore_ascii_case(name)))
    {
        let ids: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment `{bad}` (valid: {})",
            ids.join(", ")
        ));
    }
    let mut out = Vec::new();
    for (name, f) in all {
        if which.is_empty() || which.iter().any(|w| w.eq_ignore_ascii_case(name)) {
            eprintln!("[experiments] running {name}...");
            let start = std::time::Instant::now();
            out.extend(f(cfg));
            eprintln!("[experiments] {name} done in {:.1?}", start.elapsed());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            quick: true,
            seed: 11,
            threads: 2,
            ..ExpConfig::default()
        }
    }

    // Each experiment is exercised end-to-end in quick mode by the
    // integration suite; here we spot-check the cheapest ones to keep
    // unit-test time sane.

    #[test]
    fn e10b_churn_table_replays_deterministically() {
        let cfg = ExpConfig {
            fault_epochs: 3,
            ..tiny_cfg()
        };
        let a = e10b_node_churn(&cfg);
        let b = e10b_node_churn(&cfg);
        assert_eq!(
            a.to_markdown(),
            b.to_markdown(),
            "churn tables must replay exactly from the seed"
        );
        assert_eq!(a.num_rows(), 3);
        assert!(a.to_markdown().contains("rerouted"));
    }

    #[test]
    fn e2_runs_and_shows_barrier() {
        let tables = e2_theorem1_adversarial(&ExpConfig {
            quick: true,
            ..tiny_cfg()
        });
        assert_eq!(tables.len(), 1);
        assert!(tables[0].num_rows() >= 8);
        let md = tables[0].to_markdown();
        assert!(md.contains("uniform"));
        assert!(md.contains("label-harmonic"));
    }

    #[test]
    fn e8_runs() {
        let tables = e8_kleinberg_alpha(&tiny_cfg());
        // quick mode: 3 sides × 6 alphas, plus a summary table.
        assert_eq!(tables[0].num_rows(), 18);
        assert_eq!(tables[1].num_rows(), 6);
    }

    #[test]
    fn selector_filters() {
        let cfg = tiny_cfg();
        let tables = run_experiments(&cfg, &["e8".to_string()]).unwrap();
        assert_eq!(tables.len(), 2);
    }

    #[test]
    fn selector_refuses_unknown_ids_before_running_any() {
        let cfg = tiny_cfg();
        for which in [vec!["e99"], vec!["e1", "e99"]] {
            let which: Vec<String> = which.into_iter().map(String::from).collect();
            let err = run_experiments(&cfg, &which).unwrap_err();
            assert!(err.contains("`e99`"), "{err}");
            assert!(
                err.contains("e1, e2, e3, e4, e5, e6, e7, e8, e9, e10"),
                "{err}"
            );
        }
    }
}
