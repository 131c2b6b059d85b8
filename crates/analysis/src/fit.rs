//! Scaling-law fits — the reproduction's core methodology.
//!
//! The paper's bounds are asymptotic (`O(√n)`, `Õ(n^{1/3})`, `O(log³n)`),
//! so "reproducing a theorem" means sweeping `n` and fitting the measured
//! mean steps to a power law `y = C·n^γ` on log–log scale. `γ` is the
//! headline (0.5 for the √n regimes, ≈1/3 for Theorem 4, ≈0 for polylog).

/// Least-squares line fit `y = a + b·x` with coefficient of determination.
#[derive(Clone, Copy, Debug)]
pub struct LineFit {
    /// Intercept.
    pub a: f64,
    /// Slope.
    pub b: f64,
    /// R² of the fit.
    pub r2: f64,
}

/// Ordinary least squares on `(x, y)` pairs. Returns `None` with fewer
/// than two distinct x values.
pub fn line_fit(points: &[(f64, f64)]) -> Option<LineFit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = nf * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (nf * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / nf;
    let mean_y = sy / nf;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a + b * p.0)).powi(2)).sum();
    let r2 = if ss_tot <= 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LineFit { a, b, r2 })
}

/// A fitted power law `y = C · n^γ`.
#[derive(Clone, Copy, Debug)]
pub struct PowerLawFit {
    /// Multiplicative constant `C`.
    pub c: f64,
    /// The scaling exponent `γ`.
    pub exponent: f64,
    /// R² on log–log scale.
    pub r2: f64,
}

/// Fits `y = C·n^γ` through `(n, y)` points with positive coordinates.
pub fn fit_power_law(points: &[(f64, f64)]) -> Option<PowerLawFit> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(n, y)| n > 0.0 && y > 0.0)
        .map(|&(n, y)| (n.ln(), y.ln()))
        .collect();
    let lf = line_fit(&logs)?;
    Some(PowerLawFit {
        c: lf.a.exp(),
        exponent: lf.b,
        r2: lf.r2,
    })
}

/// Crossover finder: the smallest `n` in the (sorted-by-n) sweep where
/// series `a` drops strictly below series `b` and stays below for the rest
/// of the sweep. Series are `(n, y)` aligned on identical `n` values.
pub fn crossover(a: &[(f64, f64)], b: &[(f64, f64)]) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let mut candidate = None;
    for (&(na, ya), &(nb, yb)) in a.iter().zip(b) {
        debug_assert_eq!(na, nb);
        if ya < yb {
            candidate.get_or_insert(na);
        } else {
            candidate = None;
        }
    }
    candidate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let f = line_fit(&pts).unwrap();
        assert!((f.a - 3.0).abs() < 1e-9);
        assert!((f.b - 2.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(line_fit(&[]).is_none());
        assert!(line_fit(&[(1.0, 2.0)]).is_none());
        assert!(line_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn sqrt_law_recovered() {
        let pts: Vec<(f64, f64)> = (8..20)
            .map(|k| {
                let n = (1usize << k) as f64;
                (n, 2.5 * n.sqrt())
            })
            .collect();
        let f = fit_power_law(&pts).unwrap();
        assert!((f.exponent - 0.5).abs() < 1e-9);
        assert!((f.c - 2.5).abs() < 1e-6);
        assert!(f.r2 > 0.999);
    }

    #[test]
    fn cube_root_law_recovered() {
        let pts: Vec<(f64, f64)> = (8..20)
            .map(|k| {
                let n = (1usize << k) as f64;
                (n, 7.0 * n.powf(1.0 / 3.0))
            })
            .collect();
        let f = fit_power_law(&pts).unwrap();
        assert!((f.exponent - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn polylog_data_has_small_power_exponent() {
        // log³ data fit as a power law over a dyadic n-sweep must show a
        // small exponent (≪ 1/3) — the discriminator used by E3.
        let pts: Vec<(f64, f64)> = (8..18)
            .map(|k| {
                let n = (1usize << k) as f64;
                (n, n.log2().powi(3))
            })
            .collect();
        let f = fit_power_law(&pts).unwrap();
        assert!(f.exponent < 0.45, "γ = {}", f.exponent);
        assert!(f.exponent > 0.0);
    }

    #[test]
    fn noisy_fit_still_close() {
        // Deterministic pseudo-noise ±10%.
        let pts: Vec<(f64, f64)> = (6..18)
            .map(|k| {
                let n = (1usize << k) as f64;
                let noise = 1.0 + 0.1 * ((k as f64 * 2.39).sin());
                (n, 4.0 * n.sqrt() * noise)
            })
            .collect();
        let f = fit_power_law(&pts).unwrap();
        assert!((f.exponent - 0.5).abs() < 0.05, "γ = {}", f.exponent);
        assert!(f.r2 > 0.98);
    }

    #[test]
    fn crossover_detection() {
        let a = vec![(1.0, 10.0), (2.0, 8.0), (4.0, 5.0), (8.0, 2.0)];
        let b = vec![(1.0, 6.0), (2.0, 6.0), (4.0, 6.0), (8.0, 6.0)];
        assert_eq!(crossover(&a, &b), Some(4.0));
        // b dips below a early but is above again later → no crossover.
        assert_eq!(crossover(&b, &a), None);
        // a always above b → None.
        let c = vec![(1.0, 9.0), (2.0, 9.0), (4.0, 9.0), (8.0, 9.0)];
        assert_eq!(crossover(&c, &b), None);
    }
}
