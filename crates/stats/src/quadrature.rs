//! Gauss–Hermite quadrature for expectations over Gaussian variables.
//!
//! The paper's yield integrals (Eq. (1) and Eq. (4)) are expectations of a
//! per-corner quantity over the inter-die Vt distribution, which is modelled
//! as a zero-mean Gaussian. Gauss–Hermite quadrature evaluates those
//! integrals with a handful of deterministic corner evaluations instead of
//! a Monte-Carlo sweep, which keeps the yield-vs-sigma figures smooth.

/// Gauss–Hermite rule: nodes and weights for
/// `∫ f(t) e^{-t²} dt ≈ Σ wᵢ f(tᵢ)`.
///
/// Nodes are computed at construction by Newton iteration on the physicists'
/// Hermite polynomials (no tables), so any order is available.
///
/// # Example
///
/// ```
/// use pvtm_stats::GaussHermite;
///
/// let gh = GaussHermite::new(24);
/// // E[X²] of a standard normal is 1.
/// let second_moment = gh.expect_gaussian(0.0, 1.0, |x| x * x);
/// assert!((second_moment - 1.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussHermite {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussHermite {
    /// Builds an `n`-point rule.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 256` (the Newton initialization is tuned
    /// for practical orders; larger rules are never needed here).
    pub fn new(n: usize) -> Self {
        assert!(n > 0 && n <= 256, "unsupported Gauss-Hermite order {n}");
        // Newton iteration adapted from Numerical Recipes `gauher`.
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        let nf = n as f64;
        let mut z = 0.0f64;
        for i in 0..m {
            // Initial guesses for the roots, largest first.
            z = match i {
                0 => (2.0 * nf + 1.0).sqrt() - 1.85575 * (2.0 * nf + 1.0).powf(-1.0 / 6.0),
                1 => z - 1.14 * nf.powf(0.426) / z,
                2 => 1.86 * z - 0.86 * nodes[0],
                3 => 1.91 * z - 0.91 * nodes[1],
                _ => 2.0 * z - nodes[i - 2],
            };
            let mut pp = 0.0;
            for _ in 0..200 {
                // Evaluate H_n via the recurrence, in the "normalized" form
                // used by Numerical Recipes to avoid overflow.
                let mut p1 = std::f64::consts::PI.powf(-0.25);
                let mut p2 = 0.0;
                for j in 0..n {
                    let p3 = p2;
                    p2 = p1;
                    let jf = j as f64;
                    p1 = z * (2.0 / (jf + 1.0)).sqrt() * p2 - (jf / (jf + 1.0)).sqrt() * p3;
                }
                pp = (2.0 * nf).sqrt() * p2;
                let z1 = z;
                z = z1 - p1 / pp;
                if (z - z1).abs() < 3e-14 {
                    break;
                }
            }
            nodes[i] = z;
            nodes[n - 1 - i] = -z;
            weights[i] = 2.0 / (pp * pp);
            weights[n - 1 - i] = weights[i];
        }
        // Order ascending for readability.
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            nodes[a]
                .partial_cmp(&nodes[b])
                .expect("Hermite nodes are finite by construction")
        });
        let nodes_sorted = idx.iter().map(|&i| nodes[i]).collect();
        let weights_sorted = idx.iter().map(|&i| weights[i]).collect();
        Self {
            nodes: nodes_sorted,
            weights: weights_sorted,
        }
    }

    /// Order of the rule.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the rule has no nodes (never the case after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Raw nodes `tᵢ` of the weight `e^{-t²}`.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Raw weights `wᵢ`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Expectation `E[f(X)]` for `X ~ N(mean, sigma²)`.
    ///
    /// With `sigma == 0` this degenerates to `f(mean)`, which is exactly
    /// what the yield sweeps need at the σ→0 endpoint.
    pub fn expect_gaussian(&self, mean: f64, sigma: f64, mut f: impl FnMut(f64) -> f64) -> f64 {
        // pvtm-lint: allow(no-float-eq) sigma = 0 degenerates the expectation to f(mean) exactly
        if sigma == 0.0 {
            return f(mean);
        }
        let norm = 1.0 / std::f64::consts::PI.sqrt();
        let scale = std::f64::consts::SQRT_2 * sigma;
        self.nodes
            .iter()
            .zip(&self.weights)
            .map(|(&t, &w)| w * f(mean + scale * t))
            .sum::<f64>()
            * norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_sqrt_pi() {
        for &n in &[4usize, 9, 16, 33, 64] {
            let gh = GaussHermite::new(n);
            let sum: f64 = gh.weights().iter().sum();
            assert!(
                (sum - std::f64::consts::PI.sqrt()).abs() < 1e-10,
                "order {n}: weight sum {sum}"
            );
        }
    }

    #[test]
    fn nodes_are_symmetric_and_sorted() {
        let gh = GaussHermite::new(20);
        let nodes = gh.nodes();
        for i in 1..nodes.len() {
            assert!(nodes[i] > nodes[i - 1]);
        }
        for i in 0..nodes.len() {
            assert!((nodes[i] + nodes[nodes.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn integrates_polynomials_exactly() {
        // An n-point rule is exact for polynomials of degree 2n-1.
        let gh = GaussHermite::new(6);
        // E[X^4] = 3 for standard normal.
        let m4 = gh.expect_gaussian(0.0, 1.0, |x| x.powi(4));
        assert!((m4 - 3.0).abs() < 1e-10, "m4={m4}");
        // E[X^6] = 15.
        let m6 = gh.expect_gaussian(0.0, 1.0, |x| x.powi(6));
        assert!((m6 - 15.0).abs() < 1e-9, "m6={m6}");
    }

    #[test]
    fn nonzero_mean_and_sigma() {
        let gh = GaussHermite::new(16);
        let mean = 2.5;
        let sigma = 0.7;
        let m1 = gh.expect_gaussian(mean, sigma, |x| x);
        let m2 = gh.expect_gaussian(mean, sigma, |x| x * x);
        assert!((m1 - mean).abs() < 1e-12);
        assert!((m2 - (mean * mean + sigma * sigma)).abs() < 1e-10);
    }

    #[test]
    fn sigma_zero_degenerates_to_point_evaluation() {
        let gh = GaussHermite::new(8);
        let v = gh.expect_gaussian(1.5, 0.0, |x| x * 10.0);
        assert_eq!(v, 15.0);
    }

    #[test]
    fn expectation_of_normal_cdf_has_closed_form() {
        // E[Φ(X)] for X ~ N(0, σ²) equals Φ(0 / sqrt(1+σ²)) = 0.5.
        let gh = GaussHermite::new(40);
        let v = gh.expect_gaussian(0.0, 2.0, crate::special::norm_cdf);
        assert!((v - 0.5).abs() < 1e-8, "v={v}");
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn rejects_order_zero() {
        let _ = GaussHermite::new(0);
    }
}
