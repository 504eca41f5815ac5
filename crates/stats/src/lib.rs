//! Statistical machinery underpinning the process-variation analyses of the
//! SOCC 2006 reproduction.
//!
//! The crate provides, with no heavyweight numerical dependencies:
//!
//! - [`special`] — special functions: `erf`/`erfc`, the standard-normal CDF
//!   [`special::norm_cdf`] and quantile [`special::norm_ppf`], `ln Γ`, and
//!   log-domain binomial tails used by the redundancy yield model.
//! - [`summary`] — numerically stable streaming moments ([`Summary`]).
//! - [`histogram`] — fixed-range histograms and exact sample quantiles, used
//!   to reproduce the leakage-distribution figures.
//! - [`quadrature`] — Gauss–Hermite quadrature for expectations over the
//!   inter-die Gaussian (paper Eq. (4)).
//! - [`montecarlo`] — parallel Monte-Carlo estimation and mean-shifted
//!   importance sampling for rare failure events.
//! - [`ks`] — one-sample Kolmogorov–Smirnov test, used by the test-suite to
//!   validate sampled distributions against their analytic forms.
//! - [`rng`] — deterministic seeding helpers so every experiment is
//!   reproducible.
//!
//! # Example
//!
//! ```
//! use pvtm_stats::special::{norm_cdf, norm_ppf};
//!
//! // Round-trip through the normal CDF and its inverse.
//! let p = norm_cdf(1.3);
//! assert!((norm_ppf(p) - 1.3).abs() < 1e-9);
//! ```

pub mod histogram;
pub mod ks;
pub mod montecarlo;
pub mod quadrature;
pub mod rng;
pub mod special;
pub mod summary;

pub use histogram::Histogram;
pub use montecarlo::{ImportanceSampler, McEstimate, QuarantinedEstimate, SampleOutcome};
pub use quadrature::GaussHermite;
pub use summary::Summary;
