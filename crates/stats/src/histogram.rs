//! Fixed-range histograms and exact sample quantiles.
//!
//! Used to regenerate the distribution figures of the paper (cell and array
//! leakage histograms of Fig. 3, source-bias and standby-power distributions
//! of Fig. 9).

use serde::Serialize;

/// A histogram with uniformly sized bins over a closed range.
///
/// Observations outside the range are counted in underflow/overflow buckets
/// rather than silently dropped, so totals always reconcile.
///
/// # Example
///
/// ```
/// use pvtm_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in [0.5, 1.5, 1.7, 9.9, -3.0] {
///     h.add(x);
/// }
/// assert_eq!(h.count(1), 2);     // the two values in [1, 2)
/// assert_eq!(h.underflow(), 1);  // -3.0
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `nbins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, if either bound is non-finite, or `nbins == 0`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range [{lo}, {hi})"
        );
        assert!(nbins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a histogram spanning exactly the sample range of `xs` (padded
    /// by half a bin so the maximum lands inside).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or contains non-finite values.
    pub fn from_samples(xs: &[f64], nbins: usize) -> Self {
        assert!(!xs.is_empty(), "cannot infer a range from no samples");
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in xs {
            assert!(x.is_finite(), "non-finite sample {x}");
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if lo == hi {
            // Degenerate sample: widen to a unit-ish window around it.
            let pad = lo.abs().max(1.0) * 1e-6;
            lo -= pad;
            hi += pad;
        }
        let pad = (hi - lo) / (2.0 * nbins as f64);
        let mut h = Self::new(lo, hi + pad, nbins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.bins.len()
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nbins()`.
    pub fn count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// All bin counts, in order.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// Normalized density value of bin `i` (integrates to the in-range
    /// fraction of the data).
    pub fn density(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.bins[i] as f64 / (total as f64 * self.bin_width())
    }

    /// Fraction of in-range mass that overlaps another histogram with the
    /// same binning. Used by tests/figures to quantify how separable two
    /// leakage distributions are (paper Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different ranges or bin counts.
    pub fn overlap(&self, other: &Histogram) -> f64 {
        assert_eq!(self.lo, other.lo, "histogram ranges differ");
        assert_eq!(self.hi, other.hi, "histogram ranges differ");
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts differ");
        let ta = self.total().max(1) as f64;
        let tb = other.total().max(1) as f64;
        self.bins
            .iter()
            .zip(&other.bins)
            .map(|(&a, &b)| (a as f64 / ta).min(b as f64 / tb))
            .sum()
    }
}

/// Exact sample quantile using linear interpolation (type-7, the numpy
/// default), computed on a scratch copy of the data.
///
/// # Panics
///
/// Panics if `xs` is empty, contains NaN, or `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use pvtm_stats::histogram::quantile;
/// let xs = [3.0, 1.0, 2.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), 2.5);
/// assert_eq!(quantile(&xs, 0.0), 1.0);
/// assert_eq!(quantile(&xs, 1.0), 4.0);
/// ```
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range: {q}");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (v.len() - 1) as f64;
    let i = pos.floor() as usize;
    let frac = pos - i as f64;
    if i + 1 < v.len() {
        v[i] * (1.0 - frac) + v[i + 1] * frac
    } else {
        v[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(0.0); // first bin
        h.add(0.999); // last bin
        h.add(1.0); // overflow (range is half-open)
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn density_integrates_to_in_range_fraction() {
        let mut h = Histogram::new(0.0, 10.0, 20);
        for i in 0..1000 {
            h.add(i as f64 * 0.01); // all in [0, 10)
        }
        let integral: f64 = (0..h.nbins()).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_samples_covers_extrema() {
        let xs = [-2.0, 5.0, 11.0, 3.0];
        let h = Histogram::from_samples(&xs, 8);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn from_samples_degenerate_constant() {
        let xs = [7.0; 10];
        let h = Histogram::from_samples(&xs, 5);
        assert_eq!(h.total(), 10);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn overlap_of_identical_histograms_is_one() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.05).collect();
        let mut a = Histogram::new(0.0, 10.0, 16);
        let mut b = Histogram::new(0.0, 10.0, 16);
        for &x in &xs {
            a.add(x);
            b.add(x);
        }
        assert!((a.overlap(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_of_disjoint_histograms_is_zero() {
        let mut a = Histogram::new(0.0, 10.0, 10);
        let mut b = Histogram::new(0.0, 10.0, 10);
        a.add(1.0);
        b.add(9.0);
        assert_eq!(a.overlap(&b), 0.0);
    }

    #[test]
    fn quantile_median_of_odd_sample() {
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        let _ = quantile(&[], 0.5);
    }
}
