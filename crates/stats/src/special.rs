//! Special functions: error function family, `ln Γ`, normal CDF/quantile,
//! and log-domain binomial machinery.
//!
//! Everything here is implemented from first principles (incomplete-gamma
//! series/continued fractions, the Lanczos approximation, Acklam's rational
//! quantile approximation with a Halley refinement) so the workspace carries
//! no numerical dependency. Accuracy is close to machine precision; the unit
//! tests pin values against independently computed references.

/// Natural log of √(2π), used by normal densities.
pub const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;

/// Square root of 2.
pub const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Lanczos approximation to `ln Γ(x)` for `x > 0`.
///
/// Uses the classic g = 5, n = 6 coefficient set (Numerical Recipes), which
/// is accurate to better than 2e-10 everywhere we use it.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection formula is intentionally not
/// implemented; all callers in this workspace use positive arguments).
///
/// # Example
///
/// ```
/// // Γ(5) = 24
/// assert!((pvtm_stats::special::ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const COF: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_9e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

/// Regularized lower incomplete gamma `P(a, x)` via series expansion.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let gln = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - gln).exp()
}

/// Regularized upper incomplete gamma `Q(a, x)` via continued fraction
/// (modified Lentz algorithm).
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let gln = ln_gamma(a);
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - gln).exp() * h
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    // pvtm-lint: allow(no-float-eq) gamma_p(a, 0) is exactly zero by definition
    if x == 0.0 {
        0.0
    } else if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Error function `erf(x)`, accurate to ~1e-15.
///
/// # Example
///
/// ```
/// assert!((pvtm_stats::special::erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        -erf(-x)
    // pvtm-lint: allow(no-float-eq) erf(0) is exactly zero by definition
    } else if x == 0.0 {
        0.0
    } else {
        gamma_p(0.5, x * x)
    }
}

/// Complementary error function `erfc(x) = 1 - erf(x)`, accurate for large
/// positive `x` where `1 - erf(x)` would underflow to cancellation.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    // pvtm-lint: allow(no-float-eq) erfc(0) is exactly one by definition
    } else if x == 0.0 {
        1.0
    } else if x * x < 1.5 {
        1.0 - gamma_p_series(0.5, x * x)
    } else {
        gamma_q_cf(0.5, x * x)
    }
}

/// Standard normal probability density function.
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x - LN_SQRT_2PI).exp()
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// This is the `Φ(·)` of the paper's Eq. (3).
///
/// # Example
///
/// ```
/// use pvtm_stats::special::norm_cdf;
/// assert!((norm_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!(norm_cdf(-40.0) >= 0.0);
/// ```
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Standard normal quantile function `Φ⁻¹(p)` (a.k.a. probit).
///
/// Uses Acklam's rational approximation followed by one Halley refinement
/// step, giving full double precision over `p ∈ (0, 1)`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` (0 and 1 excluded — they map to ±∞).
///
/// # Example
///
/// ```
/// use pvtm_stats::special::{norm_cdf, norm_ppf};
/// for &p in &[1e-9, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9] {
///     assert!((norm_cdf(norm_ppf(p)) - p).abs() < 1e-12 * p.max(1e-3));
/// }
/// ```
pub fn norm_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_ppf requires p in (0,1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln_1p_neg()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    };

    // One step of Halley's method drives the result to machine precision.
    let e = norm_cdf(x) - p;
    let u = e * (LN_SQRT_2PI + 0.5 * x * x).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Internal helper so the upper-tail branch of [`norm_ppf`] reads naturally.
trait Ln1pNeg {
    fn ln_1p_neg(self) -> f64;
}
impl Ln1pNeg for f64 {
    /// `ln(x)` written as `ln1p(x - 1)` for `x` near 1 (better conditioning).
    fn ln_1p_neg(self) -> f64 {
        (self - 1.0).ln_1p()
    }
}

/// `ln C(n, k)` — log binomial coefficient.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose requires k <= n, got k={k}, n={n}");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// The lower and upper binomial tails of one `(n, k)` pair, for
/// evaluating them at many probabilities `p`.
///
/// The log coefficients `ln C(n, i)` that the tails sum are computed by
/// [`ln_choose`] on first use and kept, and `ln p` and `ln(1 − p)` once
/// per call. The sums run the same operations in the same order as a
/// per-term evaluation of `ln P[X = i]`, so every result is bitwise that
/// evaluation's (the unit tests keep it as the oracle). [`binomial_cdf`]
/// and [`binomial_sf`] are one-shot wrappers over it.
///
/// # Example
///
/// ```
/// use pvtm_stats::special::{binomial_sf, BinomialTail};
/// let mut tail = BinomialTail::new(2048, 102);
/// for p in [1e-3, 0.04, 0.06] {
///     assert_eq!(tail.sf(p).to_bits(), binomial_sf(2048, 102, p).to_bits());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BinomialTail {
    n: u64,
    k: u64,
    /// `ln C(n, i)` for `i < ln_choose.len()`, grown as far as a sum reaches.
    ln_choose: Vec<f64>,
    /// The log terms of the current sum.
    terms: Vec<f64>,
}

impl BinomialTail {
    /// The tails `P[X <= k]` and `P[X > k]` of `X ~ Binomial(n, p)`.
    pub fn new(n: u64, k: u64) -> Self {
        Self {
            n,
            k,
            ln_choose: Vec::new(),
            terms: Vec::new(),
        }
    }

    /// Lower tail `P[X <= k]`, evaluated by log-domain summation.
    ///
    /// # Panics
    ///
    /// Panics if `k < n` and `p` is outside `[0, 1]`.
    pub fn cdf(&mut self, p: f64) -> f64 {
        if self.k >= self.n {
            return 1.0;
        }
        self.log_sum(p, false)
    }

    /// Survival function `P[X > k]`, stable when the tail is tiny (sums
    /// the complementary side when that is cheaper / more accurate).
    ///
    /// # Panics
    ///
    /// Panics if `k < n` and `p` is outside `[0, 1]`.
    pub fn sf(&mut self, p: f64) -> f64 {
        if self.k >= self.n {
            return 0.0;
        }
        let mean = self.n as f64 * p;
        if (self.k as f64) < mean {
            // The upper tail dominates; 1 - CDF is well conditioned.
            1.0 - self.cdf(p)
        } else {
            self.log_sum(p, true)
        }
    }

    /// `Σ P[X = i]` in the log domain with the running max trick, over
    /// `i = 0..=k`, or over `i = k+1..=n` (`upper`) truncated once terms
    /// fall 60 nats below the running max.
    fn log_sum(&mut self, p: f64, upper: bool) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must lie in [0,1], got {p}");
        let Self {
            n,
            k,
            ln_choose: coefficients,
            terms,
        } = self;
        let (n, k) = (*n, *k);
        let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
        let mut ln_pmf = |i: u64| -> f64 {
            // pvtm-lint: allow(no-float-eq) degenerate Bernoulli endpoint has an exact log-pmf
            if p == 0.0 {
                return if i == 0 { 0.0 } else { f64::NEG_INFINITY };
            }
            // pvtm-lint: allow(no-float-eq) degenerate Bernoulli endpoint has an exact log-pmf
            if p == 1.0 {
                return if i == n { 0.0 } else { f64::NEG_INFINITY };
            }
            while coefficients.len() as u64 <= i {
                coefficients.push(ln_choose(n, coefficients.len() as u64));
            }
            coefficients[i as usize] + i as f64 * ln_p + (n - i) as f64 * ln_q
        };
        terms.clear();
        let mut max_ln = f64::NEG_INFINITY;
        let range = if upper { k + 1..=n } else { 0..=k };
        for i in range {
            let l = ln_pmf(i);
            if l > max_ln {
                max_ln = l;
            }
            terms.push(l);
            if upper && l < max_ln - 60.0 && i > k + 4 {
                break;
            }
        }
        // pvtm-lint: allow(no-float-eq) NEG_INFINITY is the assigned empty-accumulator sentinel
        if max_ln == f64::NEG_INFINITY {
            return 0.0;
        }
        let sum: f64 = terms.iter().map(|l| (l - max_ln).exp()).sum();
        (max_ln + sum.ln()).exp().min(1.0)
    }
}

/// Lower binomial tail `P[X <= k]` for `X ~ Binomial(n, p)`, evaluated by
/// log-domain summation ([`BinomialTail::cdf`]).
///
/// This is the memory-survival probability of the paper's redundancy model:
/// a chip survives when the number of faulty columns is at most the number
/// of redundant columns.
///
/// # Example
///
/// ```
/// use pvtm_stats::special::binomial_cdf;
/// // With p = 0 no column ever fails.
/// assert_eq!(binomial_cdf(512, 8, 0.0), 1.0);
/// // CDF at k = n is exactly 1.
/// assert!((binomial_cdf(16, 16, 0.3) - 1.0).abs() < 1e-12);
/// ```
pub fn binomial_cdf(n: u64, k: u64, p: f64) -> f64 {
    BinomialTail::new(n, k).cdf(p)
}

/// Survival function `P[X > k]` of the binomial ([`BinomialTail::sf`]).
pub fn binomial_sf(n: u64, k: u64, p: f64) -> f64 {
    BinomialTail::new(n, k).sf(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Log of the binomial PMF `P[X = k]` for `X ~ Binomial(n, p)`, term by
    /// term: with [`oracle_cdf`] and [`oracle_sf`], the evaluation that
    /// [`BinomialTail`] must reproduce bit for bit.
    fn ln_binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must lie in [0,1], got {p}");
        if p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if p == 1.0 {
            return if k == n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()
    }

    /// `P[X <= k]` from [`ln_binomial_pmf`] at every term.
    fn oracle_cdf(n: u64, k: u64, p: f64) -> f64 {
        if k >= n {
            return 1.0;
        }
        // Sum in the log domain with the running max trick.
        let mut terms = Vec::with_capacity((k + 1) as usize);
        let mut max_ln = f64::NEG_INFINITY;
        for i in 0..=k {
            let l = ln_binomial_pmf(n, i, p);
            if l > max_ln {
                max_ln = l;
            }
            terms.push(l);
        }
        if max_ln == f64::NEG_INFINITY {
            return 0.0;
        }
        let sum: f64 = terms.iter().map(|l| (l - max_ln).exp()).sum();
        (max_ln + sum.ln()).exp().min(1.0)
    }

    /// `P[X > k]` from [`ln_binomial_pmf`] at every term.
    fn oracle_sf(n: u64, k: u64, p: f64) -> f64 {
        if k >= n {
            return 0.0;
        }
        let mean = n as f64 * p;
        if (k as f64) < mean {
            // The upper tail dominates; 1 - CDF is well conditioned.
            1.0 - oracle_cdf(n, k, p)
        } else {
            // Sum the upper tail directly in the log domain.
            let mut terms = Vec::new();
            let mut max_ln = f64::NEG_INFINITY;
            // Truncate once terms fall 60 nats below the running max.
            for i in (k + 1)..=n {
                let l = ln_binomial_pmf(n, i, p);
                if l > max_ln {
                    max_ln = l;
                }
                terms.push(l);
                if l < max_ln - 60.0 && i > k + 4 {
                    break;
                }
            }
            if max_ln == f64::NEG_INFINITY {
                return 0.0;
            }
            let sum: f64 = terms.iter().map(|l| (l - max_ln).exp()).sum();
            (max_ln + sum.ln()).exp().min(1.0)
        }
    }

    /// `(columns, spares)` of the figures' organizations (64 KB and 256 KB
    /// at 102 spares, 32 KB at 5 %) and of smaller arrays.
    const ORGS: [(u64, u64); 6] = [
        (2048, 102),
        (5120, 102),
        (1024, 51),
        (64, 3),
        (512, 8),
        (100, 5),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tail_matches_the_per_term_oracle_bitwise(
            org in 0usize..12,
            n_exp in 0.0f64..=1.0,
            k_small in 0u64..=140,
            k_frac in 0.0f64..=1.0,
            draws in prop::collection::vec(0.0f64..1.0, 8),
            picks in prop::collection::vec(0usize..16, 40),
        ) {
            // Half the cases take an organization above; the others draw n
            // log-uniformly over 1..=9000 and k either small, as spare
            // counts are, or anywhere in 0..=n.
            let (n, k) = ORGS.get(org).copied().unwrap_or_else(|| {
                let n = 9000f64.powf(n_exp).round().max(1.0) as u64;
                let k = if org % 2 == 0 {
                    k_small.min(n)
                } else {
                    (k_frac * n as f64).round() as u64
                };
                (n, k)
            });
            // Both sides of `sf`'s switch at `k < n·p`, the endpoints, a
            // deep tail and log-uniform draws over [1e-30, 1).
            let switch = k as f64 / n as f64;
            let mut ps = vec![
                0.0,
                1.0,
                1e-300,
                switch,
                switch.next_down().max(0.0),
                switch.next_up().min(1.0),
                switch * (1.0 - 1e-9),
                (switch * (1.0 + 1e-9)).min(1.0),
            ];
            ps.extend(draws.iter().map(|u| 10f64.powf(-30.0 * (1.0 - u))));
            // One tail for every p, in random order, so that the lazy
            // coefficient table is grown from different first calls.
            let mut tail = BinomialTail::new(n, k);
            for &i in &picks {
                let p = ps[i];
                prop_assert_eq!(tail.cdf(p).to_bits(), oracle_cdf(n, k, p).to_bits());
                prop_assert_eq!(tail.sf(p).to_bits(), oracle_sf(n, k, p).to_bits());
            }
        }
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            fact *= n as f64;
            let err = (ln_gamma(n as f64 + 1.0) - fact.ln()).abs();
            assert!(err < 1e-9, "ln_gamma({}) err {err}", n + 1);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "positive argument")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from Abramowitz & Stegun table 7.1.
        let cases = [
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-12, "erf({x})");
            assert!((erf(-x) + want).abs() < 1e-12, "erf(-{x})");
        }
    }

    #[test]
    fn erfc_deep_tail_is_positive_and_tiny() {
        let v = erfc(8.0);
        assert!(v > 0.0 && v < 1e-28, "erfc(8) = {v}");
        // Known: erfc(8) ≈ 1.1224297172982928e-29
        assert!((v / 1.122_429_717_298_292_8e-29 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_cdf_symmetry() {
        for &x in &[0.1, 0.7, 1.5, 3.0, 5.0] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn norm_cdf_reference_values() {
        assert!((norm_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-12);
        assert!((norm_cdf(-3.0) - 1.349_898_031_630_094_6e-3).abs() < 1e-15);
    }

    #[test]
    fn norm_ppf_round_trip() {
        for i in 1..400 {
            let p = i as f64 / 400.0;
            let x = norm_ppf(p);
            assert!((norm_cdf(x) - p).abs() < 1e-13, "p={p}");
        }
    }

    #[test]
    fn norm_ppf_extreme_tails() {
        let x = norm_ppf(1e-12);
        assert!((norm_cdf(x) / 1e-12 - 1.0).abs() < 1e-8);
        let y = norm_ppf(1.0 - 1e-12);
        assert!(y > 6.9 && y < 7.1);
    }

    #[test]
    #[should_panic(expected = "p in (0,1)")]
    fn norm_ppf_rejects_zero() {
        let _ = norm_ppf(0.0);
    }

    #[test]
    fn choose_small_values() {
        assert!((ln_choose(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((ln_choose(10, 5).exp() - 252.0).abs() < 1e-8);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let n = 40;
        let p = 0.37;
        let total: f64 = (0..=n).map(|k| ln_binomial_pmf(n, k, p).exp()).sum();
        // Limited by the ~1e-10 accuracy of the Lanczos ln_gamma.
        assert!((total - 1.0).abs() < 1e-8, "total={total}");
    }

    #[test]
    fn binomial_cdf_and_sf_complement() {
        for &(n, k, p) in &[(512u64, 8u64, 1e-3), (100, 50, 0.5), (64, 3, 0.02)] {
            let c = binomial_cdf(n, k, p);
            let s = binomial_sf(n, k, p);
            assert!((c + s - 1.0).abs() < 1e-10, "n={n} k={k} p={p}");
        }
    }

    #[test]
    fn binomial_sf_tiny_p_is_accurate() {
        // With tiny p the survival P[X > 0] = 1 - (1-p)^n ≈ np.
        let n = 1000u64;
        let p = 1e-9;
        let sf = binomial_sf(n, 0, p);
        let exact = 1.0 - (1.0 - p).powi(n as i32);
        assert!((sf / exact - 1.0).abs() < 1e-6, "sf={sf} exact={exact}");
    }

    #[test]
    fn binomial_degenerate_probabilities() {
        assert_eq!(binomial_cdf(10, 3, 0.0), 1.0);
        assert_eq!(binomial_sf(10, 3, 0.0), 0.0);
        assert_eq!(binomial_cdf(10, 3, 1.0), 0.0);
        assert_eq!(binomial_sf(10, 3, 1.0), 1.0);
    }

    #[test]
    fn gamma_p_limits() {
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert!((gamma_p(1.0, 30.0) - 1.0).abs() < 1e-12);
        // P(1, x) = 1 - e^{-x}
        assert!((gamma_p(1.0, 0.7) - (1.0 - (-0.7f64).exp())).abs() < 1e-12);
    }
}
