//! Cell failure-probability estimation under random intra-die variation.
//!
//! The paper (via its ref \[3\]) estimates each failure probability with a
//! sensitivity-based method: the margin is linearized in the six transistor
//! threshold deviations, whose RDF statistics are known, giving
//! `P_fail = Φ(−M₀ / ‖∇M·σ‖)`. An importance-sampled Monte-Carlo estimator
//! on the exact (nonlinear, circuit-solved) margins cross-checks it.

use pvtm_circuit::CircuitError;
use pvtm_stats::special::norm_cdf;
use pvtm_stats::{ImportanceSampler, McEstimate, QuarantinedEstimate, SampleOutcome};
use rayon::prelude::*;

use crate::analysis::{AnalysisConfig, Margins};
use crate::cell::{CellSizing, Conditions, SramCell, Xtor};
use crate::evaluator::CellEvaluator;
use pvtm_device::Technology;

/// Probability of each failure mechanism for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureProbs {
    /// Read (disturb) failure probability.
    pub read: f64,
    /// Write failure probability.
    pub write: f64,
    /// Access-time failure probability.
    pub access: f64,
    /// Hold (retention) failure probability.
    pub hold: f64,
}

impl FailureProbs {
    /// Overall cell failure probability assuming mechanism independence:
    /// `1 − Π(1 − pᵢ)`.
    pub fn overall(&self) -> f64 {
        1.0 - (1.0 - self.read) * (1.0 - self.write) * (1.0 - self.access) * (1.0 - self.hold)
    }

    /// The probabilities as an array ordered `[read, write, access, hold]`.
    pub fn as_array(&self) -> [f64; 4] {
        [self.read, self.write, self.access, self.hold]
    }

    /// The dominant (largest-probability) mechanism name.
    pub fn dominant(&self) -> &'static str {
        let arr = self.as_array();
        let names = ["read", "write", "access", "hold"];
        let mut best = 0;
        for i in 1..4 {
            if arr[i] > arr[best] {
                best = i;
            }
        }
        names[best]
    }
}

/// Margin linearization of one mechanism: nominal value plus per-transistor
/// sensitivities (in units of margin per 1σ of that transistor's RDF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginModel {
    /// Margin at zero intra-die deviation.
    pub nominal: f64,
    /// Sensitivities to a +1σ deviation of each transistor (canonical
    /// [`Xtor`] order).
    pub sensitivity: [f64; 6],
}

impl MarginModel {
    /// Effective sigma of the margin under iid standard-normal `z`.
    pub fn sigma(&self) -> f64 {
        self.sensitivity.iter().map(|s| s * s).sum::<f64>().sqrt()
    }

    /// Failure probability `P[margin < 0]` from the linearization.
    pub fn failure_prob(&self) -> f64 {
        let s = self.sigma();
        // pvtm-lint: allow(no-float-eq) zero sigma collapses the Gaussian to a step at the nominal
        if s == 0.0 {
            return if self.nominal < 0.0 { 1.0 } else { 0.0 };
        }
        norm_cdf(-self.nominal / s)
    }

    /// Predicted margin at a given standardized deviation vector.
    pub fn margin_at(&self, z: &[f64; 6]) -> f64 {
        self.nominal
            + self
                .sensitivity
                .iter()
                .zip(z)
                .map(|(s, zi)| s * zi)
                .sum::<f64>()
    }
}

/// Hold-failure model: the 1-node droop is *exponential* in the threshold
/// deviations (it is a leakage ratio) while the allowed droop (distance to
/// the retention trip point) is linear, so neither a volts-linear nor a
/// log-linear single model captures both tails. This mixed model keeps
/// `ln(droop)` and `allowed` as separate linear models and integrates the
/// failure probability `P[exp(ln droop) > allowed]` exactly under them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldFailureModel {
    /// Linear model of `ln(droop)` (dimensionless log-volts).
    pub ln_droop: MarginModel,
    /// Linear model of the allowed droop `VDD − V_TRIPHD` \[V\].
    pub allowed: MarginModel,
}

impl HoldFailureModel {
    /// Hold-failure probability `P[droop > allowed]` by quadrature along
    /// the dominant (exponential) direction, with the orthogonal remainder
    /// of the allowed-droop model integrated in closed form.
    pub fn failure_prob(&self) -> f64 {
        let a = &self.ln_droop.sensitivity;
        let b = &self.allowed.sensitivity;
        let norm_a = self.ln_droop.sigma();
        let d0 = self.ln_droop.nominal;
        let b0 = self.allowed.nominal;
        if norm_a < 1e-12 {
            // Droop is deterministic: failure is a linear event in b.
            let droop = d0.exp();
            let sb = self.allowed.sigma();
            return if sb < 1e-15 {
                if droop > b0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                norm_cdf((droop - b0) / sb)
            };
        }
        let ahat: [f64; 6] = std::array::from_fn(|i| a[i] / norm_a);
        let b_par: f64 = b.iter().zip(&ahat).map(|(bi, ai)| bi * ai).sum();
        let b_norm2: f64 = b.iter().map(|x| x * x).sum();
        let b_perp = (b_norm2 - b_par * b_par).max(0.0).sqrt();
        let gh = pvtm_stats::GaussHermite::new(40);
        gh.expect_gaussian(0.0, 1.0, |u| {
            let droop = (d0 + norm_a * u).exp();
            let allowed_mean = b0 + b_par * u;
            if b_perp < 1e-15 {
                if droop > allowed_mean {
                    1.0
                } else {
                    0.0
                }
            } else {
                norm_cdf((droop - allowed_mean) / b_perp)
            }
        })
        .clamp(0.0, 1.0)
    }

    /// Whether a specific cell (standardized deviation vector `z`) fails
    /// to hold under this model: its droop exceeds its allowed droop.
    pub fn fails_at(&self, z: &[f64; 6]) -> bool {
        self.ln_droop.margin_at(z).exp() > self.allowed.margin_at(z)
    }

    /// Signed hold slack \[V\] of a specific cell under this model
    /// (`allowed − droop`; negative = retention lost).
    pub fn slack_at(&self, z: &[f64; 6]) -> f64 {
        self.allowed.margin_at(z) - self.ln_droop.margin_at(z).exp()
    }

    /// An approximate single linear model of the combined hold margin
    /// `ln(allowed) − ln(droop)`, used to aim the importance sampler.
    pub fn combined_margin(&self) -> MarginModel {
        let b0 = self.allowed.nominal.max(1e-9);
        MarginModel {
            nominal: b0.ln() - self.ln_droop.nominal,
            sensitivity: std::array::from_fn(|i| {
                self.allowed.sensitivity[i] / b0 - self.ln_droop.sensitivity[i]
            }),
        }
    }
}

/// Linearized models of all four mechanisms at one corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFailureModel {
    /// Read-margin linearization.
    pub read: MarginModel,
    /// Write-margin linearization.
    pub write: MarginModel,
    /// Access-margin linearization.
    pub access: MarginModel,
    /// Hold mixed exponential-linear model.
    pub hold: HoldFailureModel,
}

impl CellFailureModel {
    /// Per-mechanism failure probabilities.
    pub fn probs(&self) -> FailureProbs {
        FailureProbs {
            read: self.read.failure_prob(),
            write: self.write.failure_prob(),
            access: self.access.failure_prob(),
            hold: self.hold.failure_prob(),
        }
    }

    /// Linear(ized) margin models ordered `[read, write, access, hold]`
    /// (hold is the approximate combined model).
    pub fn as_array(&self) -> [MarginModel; 4] {
        [
            self.read,
            self.write,
            self.access,
            self.hold.combined_margin(),
        ]
    }
}

/// Failure-probability estimator for a cell design.
#[derive(Debug, Clone)]
pub struct FailureAnalyzer {
    config: AnalysisConfig,
    base: SramCell,
    sigmas: [f64; 6],
}

impl FailureAnalyzer {
    /// Creates an analyzer for the given technology / sizing / metric
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid sizing or a non-positive `t_max`.
    pub fn new(tech: &Technology, sizing: CellSizing, config: AnalysisConfig) -> Self {
        config.check();
        let base = SramCell::with_sizing(tech, sizing);
        let sigmas = std::array::from_fn(|i| base.sigma_vt(Xtor::ALL[i]));
        Self {
            config,
            base,
            sigmas,
        }
    }

    /// The metric configuration in use.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Calibrates the timing thresholds (`t_max`, `t_wl_max`) so the
    /// access and write mechanisms sit at `beta_target` sigmas of margin at
    /// the nominal corner — the designer's guard-band choice. Read and hold
    /// margins are physical and are left untouched.
    ///
    /// The log-domain margins make this exact: `ln(T/t)` has a sigma that
    /// does not depend on the threshold `T`, so one linearization gives the
    /// sigma and the threshold follows as `t_nominal · exp(beta·sigma)`.
    /// The nominal times are solved cold, so they depend on the cell alone.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn calibrate_timing(
        tech: &Technology,
        sizing: CellSizing,
        mut config: AnalysisConfig,
        beta_target: f64,
    ) -> Result<Self, CircuitError> {
        assert!(
            beta_target > 0.0 && beta_target.is_finite(),
            "invalid beta target {beta_target}"
        );
        let provisional = Self::new(tech, sizing, config);
        let cond = Conditions::active(tech);
        let model = provisional.linearize(0.0, &cond)?;
        let mut ev = provisional.evaluator();
        ev.set_warm_start(false);
        let t_acc = ev.access_time(&cond)?;
        let t_wr = ev.write_time(&cond)?;
        config.t_max = t_acc * (beta_target * model.access.sigma()).exp();
        config.t_wl_max = t_wr * (beta_target * model.write.sigma()).exp();
        Ok(Self::new(tech, sizing, config))
    }

    /// Per-transistor RDF sigmas \[V\] in canonical order.
    pub fn sigmas(&self) -> &[f64; 6] {
        &self.sigmas
    }

    /// The analyzer's base cell (nominal deviations, this sizing).
    pub fn base(&self) -> &SramCell {
        &self.base
    }

    /// Builds a reusable compiled-template evaluator for this analyzer's
    /// cell — the hot path for repeated margin evaluations (linearization,
    /// Monte Carlo). See [`CellEvaluator`].
    pub fn evaluator(&self) -> CellEvaluator {
        CellEvaluator::new(self.config, &self.base)
    }

    /// Runs `f(ev, i, &items[i])` over the items in parallel and collects in
    /// item order (a `Result<Vec<_>, _>` keeps the first error). Each worker
    /// holds one evaluator and adopts the caller's span. Every item starts
    /// cold, so its solver work, and every telemetry work counter, does not
    /// depend on which items its worker ran before; warm starts serve only
    /// the solves within an item.
    pub fn sweep<T: Sync, R: Send, C: FromIterator<R>>(
        &self,
        items: &[T],
        f: impl Fn(&mut CellEvaluator, usize, &T) -> R + Sync,
    ) -> C {
        let ctx = pvtm_telemetry::parallel_context();
        items
            .par_iter()
            .enumerate()
            .map_init(
                || (pvtm_telemetry::adopt(&ctx), self.evaluator()),
                |(_ctx, ev), (i, item)| {
                    ev.invalidate_warm();
                    f(ev, i, item)
                },
            )
            .collect()
    }

    /// Patches `ev`'s deviations to the standardized vector `z` on top of
    /// an inter-die shift: `dvtᵢ = base + vt_inter·[NMOSᵢ] + σᵢ·zᵢ`.
    fn apply_deviation(&self, ev: &mut CellEvaluator, z: &[f64; 6], vt_inter: f64) {
        let mut dvt = *self.base.deviations();
        for i in 0..6 {
            if Xtor::ALL[i].is_nmos() {
                dvt[i] += vt_inter;
            }
            dvt[i] += self.sigmas[i] * z[i];
        }
        ev.set_deviations(dvt);
    }

    /// Exact (circuit-solved) margins at a standardized deviation vector
    /// `z` (per-transistor deviation `σᵢ·zᵢ`) on top of an inter-die shift.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn margins_at(
        &self,
        z: &[f64; 6],
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<Margins, CircuitError> {
        let mut ev = self.evaluator();
        self.margins_at_with(&mut ev, z, vt_inter, cond)
    }

    /// [`Self::margins_at`] against a caller-held evaluator, so repeated
    /// evaluations reuse the compiled templates and warm-started solver
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn margins_at_with(
        &self,
        ev: &mut CellEvaluator,
        z: &[f64; 6],
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<Margins, CircuitError> {
        self.apply_deviation(ev, z, vt_inter);
        ev.margins(cond)
    }

    /// One evaluation of every raw metric at a standardized deviation
    /// vector: `[read, write, access]` margins plus `ln(droop)` and
    /// `allowed` for the hold model.
    fn metrics_at_with(
        &self,
        ev: &mut CellEvaluator,
        z: &[f64; 6],
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<[f64; 5], CircuitError> {
        self.apply_deviation(ev, z, vt_inter);
        ev.metrics(cond)
    }

    /// Builds the linearized failure model at a corner by central
    /// differences at ±1σ per transistor (13 metric evaluations, all
    /// through one warm-started evaluator).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn linearize(
        &self,
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<CellFailureModel, CircuitError> {
        self.linearize_with(&mut self.evaluator(), vt_inter, cond)
    }

    /// [`Self::linearize`] against a caller-held evaluator: sweeps and
    /// per-thread loops (corner grids) keep the compiled templates and
    /// warm-started solver state alive across calls. The evaluator must
    /// come from this analyzer's [`Self::evaluator`].
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn linearize_with(
        &self,
        ev: &mut CellEvaluator,
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<CellFailureModel, CircuitError> {
        let _span = pvtm_telemetry::span("analyzer.linearize");
        let zero = [0.0; 6];
        let m0 = self.metrics_at_with(ev, &zero, vt_inter, cond)?;
        let mut sens = [[0.0f64; 6]; 5];
        for i in 0..6 {
            let mut zp = zero;
            let mut zm = zero;
            zp[i] = 1.0;
            zm[i] = -1.0;
            let mp = self.metrics_at_with(ev, &zp, vt_inter, cond)?;
            let mm = self.metrics_at_with(ev, &zm, vt_inter, cond)?;
            for k in 0..5 {
                sens[k][i] = 0.5 * (mp[k] - mm[k]);
            }
        }
        let model = |k: usize| MarginModel {
            nominal: m0[k],
            sensitivity: sens[k],
        };
        Ok(CellFailureModel {
            read: model(0),
            write: model(1),
            access: model(2),
            hold: HoldFailureModel {
                ln_droop: model(3),
                allowed: model(4),
            },
        })
    }

    /// Builds only the hold model at a corner — an order of magnitude
    /// cheaper than [`Self::linearize`] (no read/write/access circuits),
    /// which matters when the source-bias calibration sweeps a
    /// corner × VSB grid.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn linearize_hold(
        &self,
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<HoldFailureModel, CircuitError> {
        self.linearize_hold_with(&mut self.evaluator(), vt_inter, cond)
    }

    /// [`Self::linearize_hold`] against a caller-held evaluator (see
    /// [`Self::linearize_with`] for the contract) — the hot path of the
    /// corner × VSB grid sweeps behind the Fig. 6 calibration.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn linearize_hold_with(
        &self,
        ev: &mut CellEvaluator,
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<HoldFailureModel, CircuitError> {
        let _span = pvtm_telemetry::span("analyzer.linearize_hold");
        let mut eval = |z: &[f64; 6]| -> Result<(f64, f64), CircuitError> {
            self.apply_deviation(ev, z, vt_inter);
            let h = ev.hold_metrics(cond)?;
            Ok((h.droop.ln(), h.allowed))
        };
        let zero = [0.0; 6];
        let (d0, b0) = eval(&zero)?;
        let mut a = [0.0f64; 6];
        let mut b = [0.0f64; 6];
        for i in 0..6 {
            let mut zp = zero;
            let mut zm = zero;
            zp[i] = 1.0;
            zm[i] = -1.0;
            let (dp, bp) = eval(&zp)?;
            let (dm, bm) = eval(&zm)?;
            a[i] = 0.5 * (dp - dm);
            b[i] = 0.5 * (bp - bm);
        }
        Ok(HoldFailureModel {
            ln_droop: MarginModel {
                nominal: d0,
                sensitivity: a,
            },
            allowed: MarginModel {
                nominal: b0,
                sensitivity: b,
            },
        })
    }

    /// Linearized per-mechanism failure probabilities at a corner.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn failure_probs(
        &self,
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<FailureProbs, CircuitError> {
        Ok(self.linearize(vt_inter, cond)?.probs())
    }

    /// [`Self::failure_probs`] against a caller-held evaluator (see
    /// [`Self::linearize_with`] for the contract).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn failure_probs_with(
        &self,
        ev: &mut CellEvaluator,
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<FailureProbs, CircuitError> {
        Ok(self.linearize_with(ev, vt_inter, cond)?.probs())
    }

    /// Importance-sampled Monte-Carlo estimate of the *overall* cell
    /// failure probability (exact margins; any mechanism failing counts).
    ///
    /// The sampling mean is shifted onto the most-likely failure boundary
    /// found by the linearization. Cells whose circuit solution does not
    /// converge — after the solver's full rescue ladder — are quarantined
    /// rather than aborting the estimation; the returned estimate is the
    /// conservative fail bound (quarantined samples counted as failures,
    /// matching the historical behavior of this method). A sample counts
    /// as a failure as soon as one mechanism fails, so a solve that would
    /// have failed after it never runs and cannot quarantine the sample
    /// (see [`Self::failure_prob_mc_quarantined`], which also gives the
    /// full both-sided accounting).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures from the linearization step, and
    /// returns [`CircuitError::QuarantineExceeded`] when the quarantine
    /// rate exceeds the documented `PVTM_MAX_QUARANTINE` threshold.
    pub fn failure_prob_mc(
        &self,
        vt_inter: f64,
        cond: &Conditions,
        samples: u64,
        seed: u64,
    ) -> Result<McEstimate, CircuitError> {
        let est = self.failure_prob_mc_quarantined(vt_inter, cond, samples, seed)?;
        pvtm_circuit::check_quarantine(est.quarantined, est.fail_bound.samples)?;
        Ok(est.fail_bound)
    }

    /// The importance sampler of [`Self::failure_prob_mc_quarantined`].
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures from the linearization step.
    fn mc_sampler(
        &self,
        vt_inter: f64,
        cond: &Conditions,
    ) -> Result<ImportanceSampler, CircuitError> {
        let model = self.linearize(vt_inter, cond)?;
        // Shift toward the dominant mechanism's boundary: distance
        // m0/sigma along the normalized sensitivity direction (margin
        // *decreases* along +sensitivity... flip to the failing side).
        let models = model.as_array();
        let mut dominant = 0usize;
        for k in 1..4 {
            if models[k].failure_prob() > models[dominant].failure_prob() {
                dominant = k;
            }
        }
        let m = &models[dominant];
        let sigma = m.sigma().max(1e-12);
        let beta = (m.nominal / sigma).clamp(-4.0, 4.0);
        let shift: Vec<f64> = m.sensitivity.iter().map(|s| -s / sigma * beta).collect();
        Ok(ImportanceSampler::new(shift))
    }

    /// [`Self::failure_prob_mc`] with full quarantine accounting: both-sided
    /// bias bounds plus the quarantined-sample count, with no threshold
    /// check applied.
    ///
    /// Each sample asks for a verdict, not for margins: its mechanisms are
    /// evaluated cheapest first and the first failing one makes it a
    /// `Fail` (`CellEvaluator::any_failure`). A solve error quarantines a
    /// sample only when no mechanism evaluated before it has failed. So,
    /// against evaluating all four margins with the same solve outcomes,
    /// `fail_bound` is unchanged, and `pass_bound` and `quarantined` can
    /// only move toward it.
    ///
    /// Each unresolved sample is recorded in the telemetry quarantine
    /// sidecar (seed, sample stream index, corner, error kind), counted
    /// under the `mc.quarantined` counter, and the two bias bounds are
    /// published as gauges when any sample was quarantined.
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures from the linearization step.
    pub fn failure_prob_mc_quarantined(
        &self,
        vt_inter: f64,
        cond: &Conditions,
        samples: u64,
        seed: u64,
    ) -> Result<QuarantinedEstimate, CircuitError> {
        let _span = pvtm_telemetry::span("analyzer.mc");
        // Record a convergence trace under a default name unless the caller
        // already opened a scope (e.g. an experiment naming its own figure).
        let _trace = match pvtm_telemetry::active_trace() {
            Some(_) => None,
            None => Some(pvtm_telemetry::trace_scope("analyzer.mc")),
        };
        let sampler = self.mc_sampler(vt_inter, cond)?;
        // One compiled evaluator per parallel chunk: templates and
        // warm-started solver state are reused across that chunk's samples.
        let est = sampler.probability_init_quarantined(
            samples,
            seed,
            || self.evaluator(),
            |ev, zs, idx| {
                let z: [f64; 6] = std::array::from_fn(|i| zs[i]);
                self.apply_deviation(ev, &z, vt_inter);
                match ev.any_failure(cond) {
                    Ok(true) => SampleOutcome::Fail,
                    Ok(false) => SampleOutcome::Pass,
                    Err(e) => {
                        pvtm_telemetry::record_quarantine(pvtm_telemetry::QuarantineRecord {
                            seed,
                            stream: idx,
                            corner: vt_inter,
                            kind: e.kind().to_string(),
                        });
                        SampleOutcome::Unresolved
                    }
                }
            },
        );
        if est.quarantined > 0 {
            pvtm_telemetry::counter_add("mc.quarantined", est.quarantined);
            pvtm_telemetry::gauge_set("mc.quarantine_fail_bound", est.fail_bound.value);
            pvtm_telemetry::gauge_set("mc.quarantine_pass_bound", est.pass_bound.value);
            // Worst-case quarantine bias as a share of the CI width: when
            // the fail/pass gap rivals the sampling error, the quarantined
            // tail — not noise — limits what the estimate can claim.
            let ci = est.fail_bound.ci95();
            if ci > 0.0 {
                pvtm_telemetry::gauge_set(
                    "mc.quarantine_ci_share",
                    (est.fail_bound.value - est.pass_bound.value) / (2.0 * ci),
                );
            }
        }
        {
            use pvtm_telemetry::json::Value;
            pvtm_telemetry::events::emit(
                "mc.estimate",
                vt_inter.to_bits(),
                seed,
                vec![
                    ("corner", Value::Num(vt_inter)),
                    ("samples", Value::Num(est.fail_bound.samples as f64)),
                    ("value", Value::Num(est.fail_bound.value)),
                    ("std_err", Value::Num(est.fail_bound.std_err)),
                    ("pass_bound", Value::Num(est.pass_bound.value)),
                    ("quarantined", Value::Num(est.quarantined as f64)),
                ],
            );
        }
        Ok(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer() -> FailureAnalyzer {
        let tech = Technology::predictive_70nm();
        FailureAnalyzer::new(
            &tech,
            CellSizing::default_for(&tech),
            AnalysisConfig::default(),
        )
    }

    fn active() -> Conditions {
        Conditions::active(&Technology::predictive_70nm())
    }

    #[test]
    fn margin_model_probability_limits() {
        let healthy = MarginModel {
            nominal: 1.0,
            sensitivity: [0.01; 6],
        };
        assert!(healthy.failure_prob() < 1e-10);
        let dead = MarginModel {
            nominal: -1.0,
            sensitivity: [0.01; 6],
        };
        assert!(dead.failure_prob() > 1.0 - 1e-10);
        let deterministic = MarginModel {
            nominal: 0.5,
            sensitivity: [0.0; 6],
        };
        assert_eq!(deterministic.failure_prob(), 0.0);
    }

    #[test]
    fn margin_model_linear_prediction() {
        let m = MarginModel {
            nominal: 0.2,
            sensitivity: [0.1, 0.0, 0.0, 0.0, 0.0, -0.05],
        };
        let z = [1.0, 0.0, 0.0, 0.0, 0.0, 2.0];
        assert!((m.margin_at(&z) - (0.2 + 0.1 - 0.1)).abs() < 1e-12);
        assert!((m.sigma() - (0.1f64.powi(2) + 0.05f64.powi(2)).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn overall_combines_mechanisms() {
        let p = FailureProbs {
            read: 0.1,
            write: 0.2,
            access: 0.0,
            hold: 0.0,
        };
        assert!((p.overall() - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
        assert_eq!(p.dominant(), "write");
    }

    #[test]
    fn nominal_cell_failure_probs_are_small() {
        let fa = analyzer();
        let p = fa.failure_probs(0.0, &active()).unwrap();
        for (name, v) in [
            ("read", p.read),
            ("write", p.write),
            ("access", p.access),
            ("hold", p.hold),
        ] {
            assert!(v < 0.02, "{name} failure prob too high at nominal: {v:.3e}");
        }
    }

    #[test]
    fn low_vt_corner_raises_read_failures() {
        let fa = analyzer();
        let cond = active();
        let nom = fa.failure_probs(0.0, &cond).unwrap();
        let low = fa.failure_probs(-0.10, &cond).unwrap();
        assert!(
            low.read > nom.read * 2.0 || low.read > 1e-3,
            "read fail must grow at the low-Vt corner: {:.3e} -> {:.3e}",
            nom.read,
            low.read
        );
    }

    #[test]
    fn high_vt_corner_raises_access_and_write_failures() {
        let fa = analyzer();
        let cond = active();
        let nom = fa.failure_probs(0.0, &cond).unwrap();
        let high = fa.failure_probs(0.10, &cond).unwrap();
        assert!(
            high.access > nom.access,
            "access fail must grow at the high-Vt corner"
        );
        assert!(
            high.write > nom.write,
            "write fail must grow at the high-Vt corner"
        );
    }

    #[test]
    fn linearized_matches_exact_margins_nearby() {
        // The linearization must predict the exact margin well within ±1σ.
        let fa = analyzer();
        let cond = active();
        let model = fa.linearize(0.0, &cond).unwrap();
        let z = [0.5, -0.5, 0.25, -0.25, 0.5, -0.5];
        let exact = fa.margins_at(&z, 0.0, &cond).unwrap();
        let pred = model.read.margin_at(&z);
        assert!(
            (pred - exact.read).abs() < 0.02,
            "read: predicted {pred:.4} vs exact {:.4}",
            exact.read
        );
        let pred_h = model.hold.combined_margin().margin_at(&z);
        assert!(
            (pred_h - exact.hold).abs() < 0.5,
            "hold: predicted {pred_h:.4} vs exact {:.4}",
            exact.hold
        );
    }

    /// The standby conditions the benchmark's Monte-Carlo workloads sample.
    fn standby() -> Conditions {
        Conditions::standby(&Technology::predictive_70nm(), 0.5)
    }

    /// Two warm evaluators walk the estimator's importance samples in
    /// lockstep, one asking for the verdict and one for all four margins;
    /// the verdict's skipped solves change its warm starts, never a verdict.
    #[test]
    fn warm_verdicts_agree_with_warm_margins_over_importance_samples() {
        use rand_distr::{Distribution, StandardNormal};
        let fa = analyzer();
        let cond = standby();
        for (i, corner) in [-0.15, 0.0, 0.15].into_iter().enumerate() {
            let sampler = fa.mc_sampler(corner, &cond).unwrap();
            let (mut verdicts, mut margins) = (fa.evaluator(), fa.evaluator());
            let mut rng = pvtm_stats::rng::substream(23, i as u64);
            let (mut fails, mut disagreements) = (0u32, 0u32);
            for _ in 0..256 {
                let z: [f64; 6] = std::array::from_fn(|k| {
                    let g: f64 = StandardNormal.sample(&mut rng);
                    g + sampler.shift()[k]
                });
                fa.apply_deviation(&mut verdicts, &z, corner);
                let verdict = verdicts.any_failure(&cond).unwrap();
                let m = fa.margins_at_with(&mut margins, &z, corner, &cond).unwrap();
                fails += u32::from(verdict);
                disagreements += u32::from(verdict != m.any_failure());
            }
            eprintln!("corner {corner}: {fails} of 256 importance samples fail");
            assert_eq!(disagreements, 0, "corner {corner}");
        }
    }

    /// The estimator against the closure it replaced, which evaluated all
    /// four margins of every sample: bit for bit at both benchmark corners.
    #[test]
    fn estimates_equal_those_of_the_all_margins_closure() {
        let bits = |e: &QuarantinedEstimate| {
            let (f, p) = (&e.fail_bound, &e.pass_bound);
            [f.value, f.std_err, p.value, p.std_err]
                .map(f64::to_bits)
                .into_iter()
                .chain([f.samples, p.samples, e.quarantined])
                .collect::<Vec<u64>>()
        };
        let fa = analyzer();
        let cond = standby();
        // The corners and sizes of `mc_nominal` and `mc_skewed`.
        for (corner, samples) in [(0.0, 512), (-0.15, 128)] {
            let sampler = fa.mc_sampler(corner, &cond).unwrap();
            for seed in [1, 2, 3] {
                let old = sampler.probability_init_quarantined(
                    samples,
                    seed,
                    || fa.evaluator(),
                    |ev, zs, _| {
                        let z: [f64; 6] = std::array::from_fn(|i| zs[i]);
                        match fa.margins_at_with(ev, &z, corner, &cond) {
                            Ok(m) if m.any_failure() => SampleOutcome::Fail,
                            Ok(_) => SampleOutcome::Pass,
                            Err(_) => SampleOutcome::Unresolved,
                        }
                    },
                );
                let new = fa
                    .failure_prob_mc_quarantined(corner, &cond, samples, seed)
                    .unwrap();
                assert_eq!(bits(&new), bits(&old), "corner {corner}, seed {seed}");
            }
        }
    }

    #[test]
    #[ignore = "expensive Monte-Carlo cross-validation; run with --ignored"]
    fn mc_cross_validates_linearized_estimate() {
        let fa = analyzer();
        // A corner with a non-negligible failure probability.
        let cond = active();
        let lin = fa.failure_probs(-0.12, &cond).unwrap().overall();
        let mc = fa.failure_prob_mc(-0.12, &cond, 4000, 7).unwrap();
        // Within a factor of 3 (the linearization is approximate and the
        // mechanisms overlap).
        assert!(
            mc.value < lin * 3.0 + 3.0 * mc.std_err && lin < mc.value * 3.0 + 3.0 * mc.std_err,
            "linearized {lin:.3e} vs MC {:.3e} ± {:.1e}",
            mc.value,
            mc.std_err
        );
    }
}
