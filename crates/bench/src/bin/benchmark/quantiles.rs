//! Order statistics of timing samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (the mean of the middle two of an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles as Python's `statistics.quantiles(xs, n=4)`
/// computes them (its default "exclusive" method); a single value is its
/// own quartiles, none gives NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Percentile `q` ∈ [0, 1], interpolated linearly between order
/// statistics; NaN when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(percentile(&xs, 0.5), 5.5);
        assert_eq!(percentile(&xs, 1.0), 10.0);
    }
}
