//! Parallel Monte-Carlo estimation and mean-shifted importance sampling.
//!
//! Failure probabilities of a well-designed SRAM cell sit in the 1e-3…1e-7
//! range, where naive Monte Carlo needs prohibitive sample counts. The
//! [`ImportanceSampler`] shifts the sampling mean of the Gaussian variation
//! vector toward the failure boundary (along the direction found by a
//! sensitivity analysis) and reweights with exact likelihood ratios, which
//! is the standard variance-reduction technique for such rare-event yields.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, StandardNormal};
use rayon::prelude::*;

use crate::summary::Summary;

/// Result of a Monte-Carlo estimation: point estimate plus sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Point estimate of the target quantity.
    pub value: f64,
    /// Standard error of the estimate.
    pub std_err: f64,
    /// Number of samples used.
    pub samples: u64,
}

impl McEstimate {
    /// Half-width of the ~95 % confidence interval.
    pub fn ci95(&self) -> f64 {
        1.96 * self.std_err
    }

    /// Relative standard error (`std_err / value`), or infinity when the
    /// estimate is zero.
    pub fn rel_err(&self) -> f64 {
        // pvtm-lint: allow(no-float-eq) an exactly zero estimate has no defined relative error
        if self.value == 0.0 {
            f64::INFINITY
        } else {
            self.std_err / self.value.abs()
        }
    }
}

/// Outcome of evaluating one Monte-Carlo sample.
///
/// `Unresolved` is the fail-stop escape hatch: the evaluator could not
/// decide the sample (typically a circuit solve that exhausted the rescue
/// ladder). Unresolved samples are *quarantined* — counted separately and
/// bracketed by both-sided bias bounds — instead of aborting the whole
/// estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutcome {
    /// The sample is decisively not in the target event.
    Pass,
    /// The sample is decisively in the target event.
    Fail,
    /// The evaluator could not decide the sample; quarantine it.
    Unresolved,
}

/// Importance-sampling estimate with quarantine accounting.
///
/// Quarantined (unresolved) samples are bracketed both ways: `fail_bound`
/// treats every quarantined sample as a failure (the conservative upper
/// bound, and the value fail-stop callers historically reported), while
/// `pass_bound` treats them all as passes (the lower bound). The true
/// probability lies between the two; their gap is the worst-case bias the
/// quarantine introduces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinedEstimate {
    /// Estimate with quarantined samples counted as failures (upper bound).
    pub fail_bound: McEstimate,
    /// Estimate with quarantined samples counted as passes (lower bound).
    pub pass_bound: McEstimate,
    /// Number of samples that came back [`SampleOutcome::Unresolved`].
    pub quarantined: u64,
}

/// Number of samples per parallel chunk. Large enough to amortize task
/// overhead, small enough to spread across cores.
const CHUNK: u64 = 4096;

/// Captures the active telemetry trace label on the calling thread (worker
/// threads have their own, empty, trace stacks) so chunk closures can
/// record their running moments into it.
fn trace_for_chunks() -> Option<pvtm_telemetry::TraceHandle> {
    pvtm_telemetry::active_trace()
}

/// Journals the estimator's planned work (`mc.start`) before fan-out.
fn record_start(trace: &Option<pvtm_telemetry::TraceHandle>, n: u64, chunks: u64) {
    if let Some(t) = trace {
        pvtm_telemetry::record_mc_start(t, n, chunks);
    }
}

/// Mean-shifted importance sampler for rare events over a standard
/// multivariate normal.
///
/// The target is `P[event(z)]` with `z ~ N(0, I_d)`. Samples are drawn from
/// `N(shift, I_d)` instead and each indicator is weighted by the likelihood
/// ratio `exp(-shiftᵀz + ‖shift‖²/2)`, an unbiased estimator with far lower
/// variance when `shift` points at the dominant failure region.
///
/// # Example
///
/// ```
/// use pvtm_stats::ImportanceSampler;
/// use pvtm_stats::special::norm_cdf;
///
/// // P[z0 > 4] ≈ 3.17e-5; estimate with a shift onto the boundary.
/// let is = ImportanceSampler::new(vec![4.0]);
/// let est = is.probability(200_000, 11, |z| z[0] > 4.0);
/// let exact = 1.0 - norm_cdf(4.0);
/// assert!((est.value - exact).abs() < 6.0 * est.std_err);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceSampler {
    shift: Vec<f64>,
    shift_norm2: f64,
}

impl ImportanceSampler {
    /// Creates a sampler with the given mean shift (its length fixes the
    /// dimension `d`).
    ///
    /// # Panics
    ///
    /// Panics if the shift is empty or contains non-finite components.
    pub fn new(shift: Vec<f64>) -> Self {
        assert!(!shift.is_empty(), "importance shift must be non-empty");
        assert!(
            shift.iter().all(|x| x.is_finite()),
            "importance shift must be finite"
        );
        let shift_norm2 = shift.iter().map(|x| x * x).sum();
        Self { shift, shift_norm2 }
    }

    /// The configured mean shift.
    pub fn shift(&self) -> &[f64] {
        &self.shift
    }

    /// Estimates `P[event(z)]` for `z ~ N(0, I_d)` with `n` weighted samples.
    ///
    /// The fully resolved case of
    /// [`Self::probability_init_quarantined`]: every sample is a pass or a
    /// fail, so the estimate is its `fail_bound` (equal to `pass_bound`).
    pub fn probability(
        &self,
        n: u64,
        seed: u64,
        event: impl Fn(&[f64]) -> bool + Sync,
    ) -> McEstimate {
        self.probability_init_quarantined(
            n,
            seed,
            || (),
            |(), z, _| {
                if event(z) {
                    SampleOutcome::Fail
                } else {
                    SampleOutcome::Pass
                }
            },
        )
        .fail_bound
    }

    /// [`Self::probability`] with per-chunk worker state and per-sample
    /// quarantine instead of fail-stop.
    ///
    /// `init` runs once per parallel chunk and its result is passed
    /// (mutably) to every event evaluation of that chunk: the entry point
    /// for stateful evaluators, e.g. compiled circuit templates whose
    /// warm-started solver state must live on one thread, without giving
    /// up chunk-level parallelism. The event closure receives the worker
    /// state, the sampled vector, and the sample's global index, and
    /// returns a three-way [`SampleOutcome`]. Unresolved samples do not
    /// abort the estimation; they are counted and bracketed by both-sided
    /// bias bounds (see [`QuarantinedEstimate`]).
    ///
    /// Each event evaluation runs inside a deterministic fault-injection
    /// stream keyed by the sample's global index
    /// ([`pvtm_telemetry::fault::begin_stream`]), so injected solver
    /// failures land on the same samples regardless of how chunks are
    /// scheduled across threads. The random stream depends only on the
    /// seed: with no unresolved samples, `fail_bound` and `pass_bound` are
    /// both the estimate [`Self::probability`] returns for the same seed.
    pub fn probability_init_quarantined<S>(
        &self,
        n: u64,
        seed: u64,
        init: impl Fn() -> S + Sync,
        event: impl Fn(&mut S, &[f64], u64) -> SampleOutcome + Sync,
    ) -> QuarantinedEstimate {
        assert!(n > 0, "importance sampling needs at least one sample");
        let d = self.shift.len();
        let chunks = n.div_ceil(CHUNK);
        let trace = trace_for_chunks();
        record_start(&trace, n, chunks);
        let ctx = pvtm_telemetry::parallel_context();
        let (s_hi, s_lo, quarantined) = (0..chunks)
            .into_par_iter()
            .map(|c| {
                let _adopt = pvtm_telemetry::adopt(&ctx);
                let _span = pvtm_telemetry::span("mc.chunk");
                let mut rng = crate::rng::substream(seed, c);
                let lo = c * CHUNK;
                let hi = ((c + 1) * CHUNK).min(n);
                let mut s_hi = Summary::new();
                let mut s_lo = Summary::new();
                let mut health = pvtm_telemetry::HealthChunk::default();
                let mut quarantined = 0u64;
                let mut z = vec![0.0f64; d];
                let mut state = init();
                for i in lo..hi {
                    let mut dot = 0.0;
                    for (zi, &mi) in z.iter_mut().zip(&self.shift) {
                        let g: f64 = StandardNormal.sample(&mut rng);
                        *zi = g + mi;
                        dot += mi * *zi;
                    }
                    let outcome = {
                        let _stream = pvtm_telemetry::fault::begin_stream(i);
                        event(&mut state, &z, i)
                    };
                    let (w_hi, w_lo) = match outcome {
                        SampleOutcome::Pass => (0.0, 0.0),
                        SampleOutcome::Fail => {
                            let w = (-dot + 0.5 * self.shift_norm2).exp();
                            // Weight spread is the health metric of a
                            // shifted estimator; quarantined samples are
                            // excluded — their weight is a bound, not an
                            // observation.
                            pvtm_telemetry::hist_record("mc.is_weight", w);
                            health.observe(w);
                            (w, w)
                        }
                        SampleOutcome::Unresolved => {
                            quarantined += 1;
                            ((-dot + 0.5 * self.shift_norm2).exp(), 0.0)
                        }
                    };
                    s_hi.add(w_hi);
                    s_lo.add(w_lo);
                }
                // One record: this chunk's moments and its weight moments
                // land together, under one registry lock.
                if let Some(t) = &trace {
                    let (n, mean, m2) = (s_hi.count(), s_hi.mean(), s_hi.m2());
                    pvtm_telemetry::record_chunk(t, c, n, mean, m2, Some(health));
                }
                (s_hi, s_lo, quarantined)
            })
            .reduce(
                || (Summary::new(), Summary::new(), 0u64),
                |mut a, b| {
                    a.0.merge(&b.0);
                    a.1.merge(&b.1);
                    a.2 += b.2;
                    a
                },
            );
        QuarantinedEstimate {
            fail_bound: McEstimate {
                value: s_hi.mean(),
                std_err: s_hi.std_err(),
                samples: s_hi.count(),
            },
            pass_bound: McEstimate {
                value: s_lo.mean(),
                std_err: s_lo.std_err(),
                samples: s_lo.count(),
            },
            quarantined,
        }
    }
}

/// Draws `d` iid standard normal variates into a freshly allocated vector.
pub fn standard_normal_vec(rng: &mut impl Rng, d: usize) -> Vec<f64> {
    (0..d).map(|_| StandardNormal.sample(rng)).collect()
}

/// Convenience: a seeded [`StdRng`].
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::norm_cdf;

    #[test]
    fn importance_sampling_matches_analytic_tail() {
        // P[z > 3.5] in 1D.
        let exact = 1.0 - norm_cdf(3.5);
        let is = ImportanceSampler::new(vec![3.5]);
        let est = is.probability(300_000, 9, |z| z[0] > 3.5);
        assert!(
            (est.value - exact).abs() < 6.0 * est.std_err + 1e-9,
            "est={} exact={exact} se={}",
            est.value,
            est.std_err
        );
        // And it must beat plain MC's relative error at equal samples.
        assert!(est.rel_err() < 0.05);
    }

    #[test]
    fn importance_sampling_multidimensional() {
        // P[(z0+z1)/√2 > 3] = 1 - Φ(3).
        let exact = 1.0 - norm_cdf(3.0);
        let s = 3.0 / std::f64::consts::SQRT_2;
        let is = ImportanceSampler::new(vec![s, s]);
        let est = is.probability(300_000, 17, |z| {
            (z[0] + z[1]) / std::f64::consts::SQRT_2 > 3.0
        });
        assert!((est.value - exact).abs() < 6.0 * est.std_err + 1e-9);
    }

    #[test]
    fn importance_sampler_with_zero_shift_is_plain_mc() {
        let is = ImportanceSampler::new(vec![0.0]);
        let est = is.probability(100_000, 5, |z| z[0] > 1.0);
        let exact = 1.0 - norm_cdf(1.0);
        assert!((est.value - exact).abs() < 6.0 * est.std_err);
    }

    #[test]
    fn ci95_scales_with_std_err() {
        let e = McEstimate {
            value: 1.0,
            std_err: 0.1,
            samples: 100,
        };
        assert!((e.ci95() - 0.196).abs() < 1e-12);
        assert!((e.rel_err() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn importance_sampler_rejects_empty_shift() {
        let _ = ImportanceSampler::new(vec![]);
    }

    #[test]
    fn quarantined_estimator_without_unresolved_matches_probability() {
        // The random stream depends only on the seed, and a per-chunk
        // scratch buffer must not change the weighting: a fully resolved
        // stateful run reproduces `probability` bit-for-bit, both bounds.
        let is = ImportanceSampler::new(vec![3.0, 0.5]);
        let plain = is.probability(100_000, 23, |z| z[0] + 0.1 * z[1] > 3.0);
        let q = is.probability_init_quarantined(
            100_000,
            23,
            || vec![0.0f64; 2],
            |buf, z, _i| {
                buf.copy_from_slice(z);
                if buf[0] + 0.1 * buf[1] > 3.0 {
                    SampleOutcome::Fail
                } else {
                    SampleOutcome::Pass
                }
            },
        );
        assert_eq!(q.quarantined, 0);
        assert_eq!(q.fail_bound, plain);
        assert_eq!(q.pass_bound, plain);
    }

    #[test]
    fn quarantined_samples_widen_the_bias_bounds() {
        let is = ImportanceSampler::new(vec![3.0]);
        let n = 50_000u64;
        let q = is.probability_init_quarantined(
            n,
            31,
            || (),
            |(), z, i| {
                if i % 1000 == 0 {
                    SampleOutcome::Unresolved
                } else if z[0] > 3.0 {
                    SampleOutcome::Fail
                } else {
                    SampleOutcome::Pass
                }
            },
        );
        assert_eq!(q.quarantined, n.div_ceil(1000));
        // Every quarantined sample contributes its weight to the fail
        // bound and zero to the pass bound, so the bounds must bracket.
        assert!(q.fail_bound.value > q.pass_bound.value);
        assert_eq!(q.fail_bound.samples, n);
        assert_eq!(q.pass_bound.samples, n);
        // And the true (fully resolved) estimate lies between them.
        let clean = is.probability(n, 31, |z| z[0] > 3.0);
        assert!(q.pass_bound.value <= clean.value + 1e-12);
        assert!(q.fail_bound.value >= clean.value - 1e-12);
    }

    #[test]
    fn quarantined_estimator_is_deterministic() {
        let is = ImportanceSampler::new(vec![2.5]);
        let run = || {
            is.probability_init_quarantined(
                30_000,
                7,
                || (),
                |(), z, i| {
                    if i % 777 == 3 {
                        SampleOutcome::Unresolved
                    } else if z[0] > 2.5 {
                        SampleOutcome::Fail
                    } else {
                        SampleOutcome::Pass
                    }
                },
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }
}
