//! Numerically stable streaming summary statistics.

/// Streaming mean / variance / extrema accumulator (Welford's algorithm),
/// mergeable so it can be used as the reduction state of a parallel
/// Monte-Carlo loop.
///
/// # Example
///
/// ```
/// use pvtm_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Welford's `M2` — the sum of squared deviations from the mean. This
    /// plus [`Self::count`] and [`Self::mean`] is the full merge state,
    /// which is what telemetry convergence traces record per chunk.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Unbiased sample variance; 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Minimum observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_err(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = Summary::new();
        s.add(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let whole = Summary::from_slice(&xs);
        let mut a = Summary::from_slice(&xs[..37]);
        let b = Summary::from_slice(&xs[37..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn stable_under_large_offset() {
        // Classic catastrophic-cancellation check.
        let offset = 1e9;
        let s: Summary = [1.0, 2.0, 3.0].iter().map(|x| x + offset).collect();
        assert!((s.variance() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: Summary = (0..10).map(|i| i as f64).collect();
        s.extend((10..20).map(|i| i as f64));
        assert_eq!(s.count(), 20);
        assert!((s.mean() - 9.5).abs() < 1e-12);
    }
}
