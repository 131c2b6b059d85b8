//! The scheme-conformance harness.
//!
//! Every [`ExplicitScheme`] makes three testable promises, and every new
//! scheme (or sampling backend) should be held to all of them:
//!
//! 1. **Distribution validity** — `contact_distribution` returns positive
//!    probabilities, no duplicate nodes, total mass ≤ 1.
//! 2. **Sampling conformance** — `sample_contact` (or any
//!    [`ContactSampler`] claiming the scheme's distribution) empirically
//!    matches the declared `φ_u`, judged by a pooled **chi-squared**
//!    goodness-of-fit test with the sub-stochastic "no link" mass as its
//!    own cell. Self-contacts are violations *unless the distribution
//!    declares them* (Theorem 4's balls legitimately contain their
//!    centre; a matrix scheme with a zero diagonal must never emit one).
//! 3. **Determinism** — the same seeded RNG reproduces the same sample
//!    sequence, so every Monte-Carlo result is replayable.
//!
//! The checks panic with a rendered per-node table on violation (run the
//! suite with `--nocapture` to also see the passing summaries), which is
//! what the CI conformance step surfaces.

use crate::sampler::ContactSampler;
use crate::scheme::ExplicitScheme;
use nav_graph::{Graph, NodeId};
use nav_par::rng::seeded_rng;
use rand::RngCore;

/// Tunables of a conformance run. The defaults are sized so that a
/// correct scheme fails with negligible probability (`z` ≈ 4.3 ⇒ false
/// positives ≈ 10⁻⁵ per check) while real distribution bugs of a few
/// percent are caught at 60k samples.
#[derive(Clone, Copy, Debug)]
pub struct ConformanceConfig {
    /// Samples drawn per checked node.
    pub samples: usize,
    /// Seed of the sampling RNG (checks are fully deterministic).
    pub seed: u64,
    /// Normal quantile used for the chi-squared acceptance threshold
    /// (Wilson–Hilferty approximation).
    pub z: f64,
    /// Minimum expected count per chi-squared cell; smaller cells are
    /// pooled (the classic ≥ 5 rule).
    pub min_expected: f64,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            samples: 60_000,
            seed: 0x00C0_F012,
            z: 4.3,
            min_expected: 5.0,
        }
    }
}

impl ConformanceConfig {
    /// The default config at a different sample count — the only knob
    /// scheme tests normally touch.
    pub fn with_samples(samples: usize) -> Self {
        ConformanceConfig {
            samples,
            ..Default::default()
        }
    }
}

/// Result of one chi-squared goodness-of-fit check.
#[derive(Clone, Debug)]
pub struct ChiSquared {
    /// The test statistic `Σ (obs − exp)² / exp` over the pooled cells.
    pub statistic: f64,
    /// Degrees of freedom (pooled cells − 1).
    pub dof: usize,
    /// Acceptance threshold at the configured `z`.
    pub threshold: f64,
    /// Cells that entered the statistic: `(label, expected, observed)`.
    pub cells: Vec<(String, f64, u64)>,
}

impl ChiSquared {
    /// Whether the statistic is under the threshold.
    pub fn passed(&self) -> bool {
        self.dof == 0 || self.statistic <= self.threshold
    }

    /// Renders the per-cell table (worst contributors first) — the
    /// artefact a failing CI run prints.
    pub fn table(&self) -> String {
        let mut rows: Vec<(f64, String)> = self
            .cells
            .iter()
            .map(|(label, exp, obs)| {
                let contrib = (*obs as f64 - exp).powi(2) / exp;
                (
                    contrib,
                    format!(
                        "{label:>12} expected {exp:10.1} observed {obs:8} contrib {contrib:8.2}"
                    ),
                )
            })
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut out = format!(
            "chi² = {:.2}, dof = {}, threshold = {:.2}\n",
            self.statistic, self.dof, self.threshold
        );
        for (_, line) in rows {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// The upper-tail chi-squared quantile at normal quantile `z` for `dof`
/// degrees of freedom (Wilson–Hilferty: accurate to a few percent for
/// dof ≥ 2, conservative enough for a pass/fail gate).
pub fn chi_squared_threshold(dof: usize, z: f64) -> f64 {
    let k = dof as f64;
    let t = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * t.powi(3)
}

/// Draws `cfg.samples` contacts via `draw` and tests them against the
/// scheme's declared `φ_u` with a pooled chi-squared statistic.
///
/// # Panics
/// Panics (with the rendered table) when the distribution itself is
/// invalid, when a draw falls outside the declared support (including
/// undeclared self-contacts), or when the chi-squared test rejects.
pub fn check_draws_against_distribution<S: ExplicitScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    u: NodeId,
    cfg: &ConformanceConfig,
    mut draw: impl FnMut(&mut dyn RngCore) -> Option<NodeId>,
    label: &str,
) -> ChiSquared {
    let n = g.num_nodes();
    // --- declared distribution validity ---------------------------------
    let dist = scheme.contact_distribution(g, u);
    let mut expected = vec![0.0f64; n];
    let mut total = 0.0f64;
    for &(v, p) in &dist {
        assert!(
            p > 0.0,
            "{label}: node {u} declares non-positive probability {p} for {v}"
        );
        assert!(
            (v as usize) < n,
            "{label}: node {u} declares out-of-range contact {v}"
        );
        assert_eq!(
            expected[v as usize], 0.0,
            "{label}: node {u} declares {v} twice"
        );
        expected[v as usize] = p;
        total += p;
    }
    assert!(
        total <= 1.0 + 1e-9,
        "{label}: node {u} declares total mass {total} > 1"
    );
    // --- sampling, with support/self-contact discipline ------------------
    let mut rng = seeded_rng(cfg.seed ^ u as u64);
    let mut counts = vec![0u64; n];
    let mut none = 0u64;
    for _ in 0..cfg.samples {
        match draw(&mut rng) {
            Some(v) => {
                assert!(
                    (v as usize) < n,
                    "{label}: node {u} sampled out-of-range contact {v}"
                );
                assert!(
                    expected[v as usize] > 0.0,
                    "{label}: node {u} sampled {v}, which has declared probability 0{}",
                    if v == u {
                        " (undeclared self-contact)"
                    } else {
                        ""
                    }
                );
                counts[v as usize] += 1;
            }
            None => none += 1,
        }
    }
    // A no-link draw is support too: a (numerically) fully stochastic
    // distribution must never sample `None` — the mirror image of the
    // undeclared-contact assertion above, so the harness is equally
    // sensitive to leaked and to vanished mass.
    let none_mass = (1.0 - total).max(0.0);
    assert!(
        none == 0 || none_mass > 1e-9,
        "{label}: node {u} sampled no-link {none} times but declares no leftover mass"
    );
    // --- pooled chi-squared ----------------------------------------------
    let samples = cfg.samples as f64;
    let mut cells: Vec<(String, f64, u64)> = Vec::new();
    let (mut pooled_exp, mut pooled_obs) = (0.0f64, 0u64);
    let mut add = |label: String, exp: f64, obs: u64| {
        if exp >= cfg.min_expected {
            cells.push((label, exp, obs));
        } else {
            pooled_exp += exp;
            pooled_obs += obs;
        }
    };
    for (v, &p) in expected.iter().enumerate() {
        if p > 0.0 {
            add(format!("→{v}"), p * samples, counts[v]);
        }
    }
    if none_mass > 0.0 || none > 0 {
        add("no-link".into(), none_mass * samples, none);
    }
    if pooled_exp > 0.0 || pooled_obs > 0 {
        cells.push(("(pooled)".into(), pooled_exp, pooled_obs));
    }
    let statistic: f64 = cells
        .iter()
        .map(|(_, exp, obs)| {
            if *exp > 0.0 {
                (*obs as f64 - exp).powi(2) / exp
            } else {
                // Only reachable as a rounding sliver: observations in a
                // truly zero-expectation cell were asserted away above
                // (both the Some and the None direction).
                0.0
            }
        })
        .sum();
    let dof = cells.len().saturating_sub(1);
    let result = ChiSquared {
        statistic,
        dof,
        threshold: chi_squared_threshold(dof.max(1), cfg.z),
        cells,
    };
    assert!(
        result.passed(),
        "{label}: node {u} failed chi-squared conformance\n{}",
        result.table()
    );
    result
}

/// Checks determinism: the same seeded RNG must reproduce the same
/// sample sequence.
fn check_determinism<S: ExplicitScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    u: NodeId,
    cfg: &ConformanceConfig,
    label: &str,
) {
    let run = || {
        let mut rng = seeded_rng(cfg.seed ^ 0xDE7E_2814);
        (0..64)
            .map(|_| scheme.sample_contact(g, u, &mut rng))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(),
        run(),
        "{label}: node {u} is not deterministic under a fixed seed"
    );
}

/// Runs the full conformance suite — distribution validity, sampling
/// chi-squared, self-contact discipline, fixed-seed determinism — for
/// `scheme` at each node of `nodes`, printing a one-line summary per
/// check (visible under `--nocapture`).
///
/// # Panics
/// Panics with a rendered chi-squared table on the first violation.
pub fn check_scheme<S: ExplicitScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    nodes: &[NodeId],
    cfg: &ConformanceConfig,
) {
    let label = scheme.name();
    for &u in nodes {
        check_determinism(g, scheme, u, cfg, &label);
        let chi = check_draws_against_distribution(
            g,
            scheme,
            u,
            cfg,
            |rng| scheme.sample_contact(g, u, rng),
            &label,
        );
        eprintln!(
            "[conformance] {label:<24} node {u:>4}: χ²={:8.2} (dof {:3}, threshold {:8.2}) ok",
            chi.statistic, chi.dof, chi.threshold
        );
    }
}

/// [`check_scheme`] for a stateful [`ContactSampler`] claiming `scheme`'s
/// distributions (e.g. the ball-row sampler) — the sampler's draws at each
/// node must pass the same chi-squared gate as the scheme's own.
pub fn check_sampler<S: ExplicitScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    sampler: &mut dyn ContactSampler,
    nodes: &[NodeId],
    cfg: &ConformanceConfig,
) {
    let label = format!("{}[{}]", scheme.name(), sampler.name());
    for &u in nodes {
        let chi = check_draws_against_distribution(
            g,
            scheme,
            u,
            cfg,
            |rng| sampler.sample(g, u, rng),
            &label,
        );
        eprintln!(
            "[conformance] {label:<24} node {u:>4}: χ²={:8.2} (dof {:3}, threshold {:8.2}) ok",
            chi.statistic, chi.dof, chi.threshold
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::AugmentationScheme;
    use crate::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;
    use rand::Rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn threshold_matches_known_quantiles() {
        // χ²₀.₉₉₉ reference values: dof 5 → 20.52, dof 10 → 29.59,
        // dof 30 → 59.70. Wilson–Hilferty should land within ~2%.
        for (dof, want) in [(5usize, 20.52f64), (10, 29.59), (30, 59.70)] {
            let got = chi_squared_threshold(dof, 3.0902); // z for 0.999
            assert!(
                (got - want).abs() / want < 0.02,
                "dof {dof}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn honest_schemes_pass() {
        let g = path(12);
        let cfg = ConformanceConfig::with_samples(20_000);
        check_scheme(&g, &UniformScheme, &[0, 5, 11], &cfg);
        check_scheme(&g, &NoAugmentation, &[3], &cfg);
    }

    #[test]
    #[should_panic(expected = "chi-squared")]
    fn biased_sampler_rejected() {
        // Claims uniform, samples node 0 twice as often.
        struct Biased;
        impl AugmentationScheme for Biased {
            fn name(&self) -> String {
                "biased".into()
            }
            fn sample_contact(
                &self,
                g: &Graph,
                _u: NodeId,
                rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                let n = g.num_nodes() as NodeId;
                let v = rng.gen_range(0..n + 1);
                Some(if v == n { 0 } else { v })
            }
        }
        impl ExplicitScheme for Biased {
            fn contact_distribution(&self, g: &Graph, _u: NodeId) -> Vec<(NodeId, f64)> {
                let n = g.num_nodes();
                (0..n as NodeId).map(|v| (v, 1.0 / n as f64)).collect()
            }
        }
        let g = path(8);
        check_scheme(&g, &Biased, &[2], &ConformanceConfig::default());
    }

    #[test]
    #[should_panic(expected = "undeclared self-contact")]
    fn undeclared_self_contact_rejected() {
        struct SelfLinker;
        impl AugmentationScheme for SelfLinker {
            fn name(&self) -> String {
                "selfish".into()
            }
            fn sample_contact(
                &self,
                _g: &Graph,
                u: NodeId,
                _rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                Some(u)
            }
        }
        impl ExplicitScheme for SelfLinker {
            fn contact_distribution(&self, _g: &Graph, u: NodeId) -> Vec<(NodeId, f64)> {
                vec![((u + 1) % 4, 1.0)] // declares the neighbour, samples itself
            }
        }
        let g = path(4);
        check_scheme(&g, &SelfLinker, &[1], &ConformanceConfig::default());
    }

    #[test]
    #[should_panic(expected = "no leftover mass")]
    fn vanished_mass_rejected() {
        // Declares full mass, drops ~0.5% of draws: too rare for the
        // chi-squared cells to notice, but support discipline catches it.
        struct Dropper;
        impl AugmentationScheme for Dropper {
            fn name(&self) -> String {
                "dropper".into()
            }
            fn sample_contact(
                &self,
                _g: &Graph,
                _u: NodeId,
                rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                (rng.gen_range(0..200u32) != 0).then_some(0)
            }
        }
        impl ExplicitScheme for Dropper {
            fn contact_distribution(&self, _g: &Graph, _u: NodeId) -> Vec<(NodeId, f64)> {
                vec![(0, 1.0)]
            }
        }
        let g = path(3);
        check_scheme(&g, &Dropper, &[1], &ConformanceConfig::default());
    }

    #[test]
    #[should_panic(expected = "total mass")]
    fn superstochastic_distribution_rejected() {
        struct TooMuch;
        impl AugmentationScheme for TooMuch {
            fn name(&self) -> String {
                "toomuch".into()
            }
            fn sample_contact(
                &self,
                _g: &Graph,
                _u: NodeId,
                _rng: &mut dyn RngCore,
            ) -> Option<NodeId> {
                Some(0)
            }
        }
        impl ExplicitScheme for TooMuch {
            fn contact_distribution(&self, _g: &Graph, _u: NodeId) -> Vec<(NodeId, f64)> {
                vec![(0, 0.8), (1, 0.8)]
            }
        }
        let g = path(3);
        check_scheme(&g, &TooMuch, &[0], &ConformanceConfig::default());
    }

    #[test]
    fn sampler_check_accepts_ball_row_cache() {
        use crate::ball::{BallRowSampler, BallScheme};
        let g = path(17);
        let scheme = BallScheme::new(&g);
        let mut sampler = BallRowSampler::new(scheme, usize::MAX);
        let cfg = ConformanceConfig::with_samples(30_000);
        check_sampler(&g, &scheme, &mut sampler, &[0, 8, 16], &cfg);
    }
}
