//! Offline shim of the `rand` crate: the API surface the pvtm workspace
//! uses, implemented on a xoshiro256++ generator seeded via SplitMix64.
//!
//! The container this workspace builds in has no crates.io access, so the
//! external `rand` crate cannot be fetched. This shim keeps the public call
//! sites (`Rng::gen`, `gen_range`, `gen_bool`, `SeedableRng::seed_from_u64`,
//! `rngs::StdRng`) source-compatible. Streams differ from upstream `rand`;
//! everything in-repo treats the generator as an opaque seeded stream, so
//! only reproducibility *within* this workspace matters.

/// Core entropy source: 64 random bits per call.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types samplable uniformly from an RNG (the shim's analogue of the
/// `Standard` distribution).
pub trait UniformSample {
    /// Draws one uniform value.
    fn uniform_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl UniformSample for f64 {
    fn uniform_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits onto [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl UniformSample for u64 {
    fn uniform_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl UniformSample for u32 {
    fn uniform_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl UniformSample for bool {
    fn uniform_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    // Full-width range.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
int_range!(usize, u64, u32, u16, u8);

macro_rules! sint_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + (rng.next_u64() % span) as i64) as $t
            }
        }
    )*};
}
sint_range!(isize, i64, i32, i16, i8);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        let u = f64::uniform_sample(rng);
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty gen_range");
        let u = f64::uniform_sample(rng);
        lo + u * (hi - lo)
    }
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of the inferred type.
    fn gen<T: UniformSample>(&mut self) -> T {
        T::uniform_sample(self)
    }

    /// Draws a value uniformly from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministically seedable generators.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman/Vigna),
    /// state expanded from the seed with SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            Self { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_f64_in_unit_interval_with_sane_mean() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sum = 0.0;
        const N: usize = 100_000;
        for _ in 0..N {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / N as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
