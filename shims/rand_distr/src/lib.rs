//! Offline shim of the `rand_distr` crate: only the pieces the pvtm
//! workspace uses (the [`Distribution`] trait and [`StandardNormal`]).

use rand::{Rng, RngCore};

/// A distribution samplable with any RNG.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The standard normal distribution `N(0, 1)`.
///
/// Sampled by the Marsaglia polar method; one cached variate is *not* kept
/// (each call draws fresh uniforms) so sampling is stateless and `Sync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandardNormal;

/// One polar-method trial: `u` and `s = u² + v²` for a point drawn
/// uniformly from the square `[-1, 1)²`.
#[inline]
fn polar_trial<R: RngCore + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u: f64 = 2.0 * rng.gen::<f64>() - 1.0;
    let v: f64 = 2.0 * rng.gen::<f64>() - 1.0;
    (u, u * u + v * v)
}

/// Whether a trial's point lies inside the unit disc (and off its centre).
#[inline]
fn polar_accepts(s: f64) -> bool {
    (s > 0.0) & (s < 1.0)
}

/// The normal variate of an accepted trial.
#[inline]
fn polar_value(u: f64, s: f64) -> f64 {
    u * (-2.0 * s.ln() / s).sqrt()
}

impl StandardNormal {
    /// Fills `out` with the values `out.len()` calls of
    /// [`Distribution::sample`] would return, consuming exactly the same
    /// random numbers, so the generator ends in the same state.
    ///
    /// Trials are stored whether accepted or not, and the write position
    /// advances by the acceptance bit; the first `out.len()` accepted
    /// trials are then turned into values in a second pass. Only the
    /// loop's exit depends on the outcomes, so a rejected trial costs no
    /// mispredicted branch.
    pub fn fill<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        const CHUNK: usize = 256;
        let mut s = [0.0f64; CHUNK];
        for chunk in out.chunks_mut(CHUNK) {
            let n = chunk.len();
            let mut k = 0;
            while k < n {
                let (u, sk) = polar_trial(rng);
                chunk[k] = u;
                s[k] = sk;
                k += usize::from(polar_accepts(sk));
            }
            for (x, &sk) in chunk.iter_mut().zip(&s) {
                *x = polar_value(*x, sk);
            }
        }
    }
}

impl Distribution<f64> for StandardNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let (u, s) = polar_trial(rng);
            if polar_accepts(s) {
                return polar_value(u, s);
            }
        }
    }
}

/// Normal distribution with the given mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates `N(mean, std_dev²)`.
    ///
    /// # Errors
    ///
    /// Rejects non-finite parameters or a negative standard deviation.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, &'static str> {
        if !mean.is_finite() || !std_dev.is_finite() || std_dev < 0.0 {
            return Err("invalid normal parameters");
        }
        Ok(Self { mean, std_dev })
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let g: f64 = StandardNormal.sample(rng);
        self.mean + self.std_dev * g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        const N: usize = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..N {
            let g: f64 = StandardNormal.sample(&mut rng);
            sum += g;
            sum2 += g * g;
        }
        let mean = sum / N as f64;
        let var = sum2 / N as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn fill_matches_repeated_sample() {
        // Every length from 0 to 1000 (across a chunk boundary), spread over
        // 200 seeds: the same values bit for bit and the same generator
        // state afterwards.
        for len in 0..=1000usize {
            let seed = (len % 200) as u64;
            let mut by_sample = StdRng::seed_from_u64(seed);
            let mut by_fill = by_sample.clone();
            let expected: Vec<u64> = (0..len)
                .map(|_| StandardNormal.sample(&mut by_sample))
                .map(f64::to_bits)
                .collect();
            let mut out = vec![f64::NAN; len];
            StandardNormal.fill(&mut by_fill, &mut out);
            let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expected, "seed {seed}, length {len}");
            assert_eq!(by_fill, by_sample, "seed {seed}, length {len}");
        }
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = Normal::new(3.0, 0.5).unwrap();
        const N: usize = 100_000;
        let mean: f64 = (0..N).map(|_| n.sample(&mut rng)).sum::<f64>() / N as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
    }
}
