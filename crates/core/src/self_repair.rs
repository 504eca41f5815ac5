//! The self-repairing SRAM: leakage-monitor binning + adaptive body bias
//! (paper §III, Fig. 4a).
//!
//! A die's array leakage identifies its inter-die corner (monitor +
//! comparators); the body-bias generator then applies RBB to leaky low-Vt
//! dies (suppressing read/hold failures and compressing the leakage
//! spread) and FBB to slow high-Vt dies (suppressing access/write
//! failures). [`SelfRepairingMemory::response`] precomputes the full
//! corner response, from which the yield integrals of Eqs. (1)–(4) are
//! evaluated by Gauss–Hermite quadrature.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::body_bias::BodyBiasGenerator;
use crate::interp::log_interp;
use crate::monitor::{LeakageBinner, LeakageMonitor, VtRegion};
use pvtm_circuit::CircuitError;
use pvtm_device::Technology;
use pvtm_sram::leakage::LeakageStats;
use pvtm_sram::{
    AnalysisConfig, ArrayOrganization, CellLeakageModel, CellSizing, Conditions, FailureAnalyzer,
    FailureProbs,
};

/// Configuration of a self-repairing memory instance.
#[derive(Debug, Clone)]
pub struct SelfRepairConfig {
    /// Technology card.
    pub tech: Technology,
    /// Cell sizing.
    pub sizing: CellSizing,
    /// Failure-metric configuration.
    pub analysis: AnalysisConfig,
    /// Array organization (capacity + redundancy).
    pub org: ArrayOrganization,
    /// Body-bias levels.
    pub generator: BodyBiasGenerator,
    /// Half-width of region B \[V\]: dies whose corner magnitude exceeds
    /// this are biased.
    pub region_boundary: f64,
    /// Standby source bias used when evaluating the hold mechanism \[V\].
    pub hold_vsb: f64,
    /// Monitor output-referred offset sigma \[V\] (0 = ideal).
    pub monitor_offset_sigma: f64,
    /// Cells sampled when estimating per-cell leakage statistics.
    pub leak_samples: usize,
}

impl SelfRepairConfig {
    /// Baseline 70 nm configuration for a given capacity in KiB with a
    /// fixed spare-column budget.
    pub fn default_70nm(kib: usize, spare_columns: usize) -> Self {
        let tech = Technology::predictive_70nm();
        let sizing = CellSizing::default_for(&tech);
        Self {
            sizing,
            analysis: AnalysisConfig::default(),
            org: ArrayOrganization::with_capacity_kib_spares(kib, spare_columns),
            generator: BodyBiasGenerator::default(),
            region_boundary: 0.05,
            hold_vsb: 0.5,
            monitor_offset_sigma: 0.0,
            leak_samples: 400,
            tech,
        }
    }
}

/// Precomputed behaviour of the design at one inter-die corner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CornerPoint {
    /// Inter-die Vt shift \[V\].
    pub corner: f64,
    /// Region assigned by the leakage binning.
    pub region: VtRegion,
    /// Body bias the self-repairing memory applies here \[V\].
    pub bias: f64,
    /// Per-mechanism cell failure probabilities with zero body bias.
    pub probs_zbb: FailureProbs,
    /// Per-mechanism cell failure probabilities with the applied bias.
    pub probs_abb: FailureProbs,
    /// Per-cell leakage statistics with zero body bias.
    pub leak_zbb: LeakageStats,
    /// Per-cell leakage statistics with the applied bias.
    pub leak_abb: LeakageStats,
}

/// The corner response of a design: everything the yield integrals need,
/// tabulated over a corner grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerResponse {
    org: ArrayOrganization,
    points: Vec<CornerPoint>,
}

/// The self-repairing memory: design + monitor + bias generator.
#[derive(Debug, Clone)]
pub struct SelfRepairingMemory {
    cfg: SelfRepairConfig,
    fa: FailureAnalyzer,
    leak: CellLeakageModel,
    binner: LeakageBinner,
}

impl SelfRepairingMemory {
    /// Builds the memory, deriving the comparator references from the array
    /// leakage expected at the region-B boundaries (±`region_boundary`).
    pub fn new(cfg: SelfRepairConfig) -> Self {
        let fa = FailureAnalyzer::new(&cfg.tech, cfg.sizing, cfg.analysis);
        let leak = CellLeakageModel::new(&cfg.tech, cfg.sizing);
        let cond = Conditions::active(&cfg.tech);
        let cells = cfg.org.cells() as f64;
        let mean_at = |corner: f64| -> f64 {
            let mut rng = pvtm_stats::rng::substream(0xB1A5, (corner.abs() * 1e4) as u64);
            leak.population_stats(corner, &cond, cfg.leak_samples, &mut rng)
                .mean
                * cells
        };
        // The high reference, the array leakage at the region-A boundary,
        // also anchors full scale at twice itself: dies deeper into region
        // A simply clamp at the rail (they are unambiguous anyway), while
        // the B/C decision region keeps enough volts per decision to
        // tolerate comparator offset.
        let i_high = mean_at(-cfg.region_boundary);
        let monitor = LeakageMonitor::new(i_high * 2.0, cfg.tech.vdd())
            .with_offset_sigma(cfg.monitor_offset_sigma);
        let i_low = mean_at(cfg.region_boundary);
        let binner = LeakageBinner::from_current_thresholds(monitor, i_low, i_high);
        Self {
            cfg,
            fa,
            leak,
            binner,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SelfRepairConfig {
        &self.cfg
    }

    /// The binning stage.
    pub fn binner(&self) -> &LeakageBinner {
        &self.binner
    }

    /// Mean array leakage of a die at a corner and body bias \[A\]
    /// (deterministic sampling).
    pub fn die_leakage(&self, corner: f64, body_bias: f64) -> f64 {
        let cond = Conditions::active(&self.cfg.tech).with_body_bias(body_bias);
        let stream = ((corner * 1e4) as i64 as u64) ^ ((body_bias * 1e4) as i64 as u64) << 20;
        let mut rng = pvtm_stats::rng::substream(0xD1E5, stream);
        self.leak
            .population_stats(corner, &cond, self.cfg.leak_samples, &mut rng)
            .mean
            * self.cfg.org.cells() as f64
    }

    /// Region the monitor assigns to a die at this corner (ideal monitor).
    pub fn classify(&self, corner: f64) -> VtRegion {
        self.binner.classify_ideal(self.die_leakage(corner, 0.0))
    }

    /// The body bias the self-repair loop applies at this corner.
    pub fn applied_bias(&self, corner: f64) -> f64 {
        self.cfg.generator.bias_for(self.classify(corner))
    }

    /// Per-cell leakage statistics at a corner / bias.
    pub fn cell_leak_stats(&self, corner: f64, body_bias: f64) -> LeakageStats {
        let cond = Conditions::active(&self.cfg.tech).with_body_bias(body_bias);
        let stream = ((corner * 1e4) as i64 as u64) ^ ((body_bias * 1e4) as i64 as u64) << 20;
        let mut rng = pvtm_stats::rng::substream(0x5EAD, stream);
        self.leak
            .population_stats(corner, &cond, self.cfg.leak_samples, &mut rng)
    }

    /// Cell failure probabilities at a corner / bias (hold evaluated at the
    /// configured standby source bias).
    ///
    /// # Errors
    ///
    /// Propagates DC-solver failures.
    pub fn cell_failure_probs(
        &self,
        corner: f64,
        body_bias: f64,
    ) -> Result<FailureProbs, CircuitError> {
        let mut ev = self.fa.evaluator();
        self.cell_failure_probs_with(&mut ev, corner, body_bias)
    }

    /// [`Self::cell_failure_probs`] against a caller-held evaluator (the
    /// per-thread hot path of [`Self::response`]).
    fn cell_failure_probs_with(
        &self,
        ev: &mut pvtm_sram::CellEvaluator,
        corner: f64,
        body_bias: f64,
    ) -> Result<FailureProbs, CircuitError> {
        let cond = Conditions::standby(&self.cfg.tech, self.cfg.hold_vsb).with_body_bias(body_bias);
        self.fa.failure_probs_with(ev, corner, &cond)
    }

    /// Precomputes the full corner response over a grid (parallel).
    ///
    /// # Errors
    ///
    /// Propagates the first DC-solver failure encountered.
    pub fn response(&self, corners: &[f64]) -> Result<CornerResponse, CircuitError> {
        assert!(corners.len() >= 2, "need a corner grid");
        let ctx = pvtm_telemetry::parallel_context();
        let points: Result<Vec<CornerPoint>, CircuitError> = corners
            .par_iter()
            .map_init(
                || (pvtm_telemetry::adopt(&ctx), self.fa.evaluator()),
                |(_ctx, ev), &corner| {
                    ev.invalidate_warm();
                    let region = self.classify(corner);
                    let bias = self.cfg.generator.bias_for(region);
                    let probs_zbb = self.cell_failure_probs_with(ev, corner, 0.0)?;
                    // pvtm-lint: allow(no-float-eq) bias is a configured discrete level; exact zero means ZBB
                    let probs_abb = if bias == 0.0 {
                        probs_zbb
                    } else {
                        self.cell_failure_probs_with(ev, corner, bias)?
                    };
                    let leak_zbb = self.cell_leak_stats(corner, 0.0);
                    // pvtm-lint: allow(no-float-eq) bias is a configured discrete level; exact zero means ZBB
                    let leak_abb = if bias == 0.0 {
                        leak_zbb
                    } else {
                        self.cell_leak_stats(corner, bias)
                    };
                    Ok(CornerPoint {
                        corner,
                        region,
                        bias,
                        probs_zbb,
                        probs_abb,
                        leak_zbb,
                        leak_abb,
                    })
                },
            )
            .collect();
        Ok(CornerResponse {
            org: self.cfg.org,
            points: points?,
        })
    }
}

/// Dense-trapezoid expectation of `f` over a zero-mean Gaussian corner —
/// accurate for the near-step integrands of the yield equations (Eq. (1),
/// Eq. (4)), where Gauss–Hermite quadrature rings.
fn gaussian_expect(sigma: f64, mut f: impl FnMut(f64) -> f64) -> f64 {
    // pvtm-lint: allow(no-float-eq) sigma = 0 degenerates the expectation to f(0) exactly
    if sigma == 0.0 {
        return f(0.0);
    }
    const POINTS: usize = 601;
    const SPAN: f64 = 6.0;
    let dt = 2.0 * SPAN / (POINTS - 1) as f64;
    let mut total = 0.0;
    for k in 0..POINTS {
        let t = -SPAN + k as f64 * dt;
        let w = if k == 0 || k == POINTS - 1 { 0.5 } else { 1.0 };
        total += w * pvtm_stats::special::norm_pdf(t) * f(sigma * t);
    }
    total * dt
}

/// Body-bias policy selector for the yield evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// Zero body bias everywhere (the unrepaired baseline).
    Zbb,
    /// Monitor-driven adaptive body bias (the self-repairing memory).
    SelfRepair,
}

impl CornerResponse {
    /// The tabulated points.
    pub fn points(&self) -> &[CornerPoint] {
        &self.points
    }

    /// The array organization the response was computed for.
    pub fn organization(&self) -> &ArrayOrganization {
        &self.org
    }

    fn corners(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.corner).collect()
    }

    fn probs(&self, policy: Policy) -> impl Iterator<Item = FailureProbs> + '_ {
        self.points.iter().map(move |p| match policy {
            Policy::Zbb => p.probs_zbb,
            Policy::SelfRepair => p.probs_abb,
        })
    }

    /// Overall cell failure probability at an arbitrary corner
    /// (log-interpolated).
    pub fn p_cell(&self, corner: f64, policy: Policy) -> f64 {
        self.p_cell_curve(policy)(corner)
    }

    /// [`Self::p_cell`] as a function of the corner, for evaluating it at
    /// many corners: the interpolation tables are built once.
    fn p_cell_curve(&self, policy: Policy) -> impl Fn(f64) -> f64 {
        let xs = self.corners();
        let ys: Vec<f64> = self.probs(policy).map(|p| p.overall()).collect();
        move |corner| log_interp(&xs, &ys, corner).min(1.0)
    }

    /// Memory failure probability at a corner (redundancy model).
    pub fn memory_failure_prob(&self, corner: f64, policy: Policy) -> f64 {
        self.org.memory_failure_prob(self.p_cell(corner, policy))
    }

    /// Expected number of faulty columns at a corner.
    pub fn expected_faulty_columns(&self, corner: f64, policy: Policy) -> f64 {
        self.org
            .expected_faulty_columns(self.p_cell(corner, policy))
    }

    /// Parametric yield (paper Eq. (1)): the fraction of dies whose memory
    /// is functional when the inter-die corner is `N(0, sigma²)`.
    ///
    /// The integrand is nearly a step in the corner (memory death is
    /// sharp), so the expectation uses a dense trapezoid rule over ±6σ
    /// rather than Gauss–Hermite, which rings on discontinuities.
    pub fn parametric_yield(&self, sigma_inter: f64, policy: Policy) -> f64 {
        // `memory_failure_prob` at every point, with the tables and the
        // binomial coefficients built once for the whole integral.
        let p_cell = self.p_cell_curve(policy);
        let mut model = self.org.redundancy_model();
        gaussian_expect(sigma_inter, |corner| {
            1.0 - model.memory_failure_prob(p_cell(corner))
        })
        .clamp(0.0, 1.0)
    }

    /// Per-cell leakage statistics at an arbitrary corner (the mean spans
    /// decades across corners, so both moments are log-interpolated).
    pub fn cell_leak_stats(&self, corner: f64, policy: Policy) -> LeakageStats {
        let xs = self.corners();
        let pick = |f: &dyn Fn(&CornerPoint) -> f64| -> f64 {
            let ys: Vec<f64> = self.points.iter().map(f).collect();
            log_interp(&xs, &ys, corner)
        };
        match policy {
            Policy::Zbb => LeakageStats {
                mean: pick(&|p| p.leak_zbb.mean),
                std_dev: pick(&|p| p.leak_zbb.std_dev),
            },
            Policy::SelfRepair => LeakageStats {
                mean: pick(&|p| p.leak_abb.mean),
                std_dev: pick(&|p| p.leak_abb.std_dev),
            },
        }
    }

    /// Array (memory) leakage mean at a corner \[A\].
    pub fn array_leak_mean(&self, corner: f64, policy: Policy) -> f64 {
        self.org
            .leakage_stats(self.cell_leak_stats(corner, policy))
            .mean
    }

    /// Leakage yield `L_Yield` (paper Eqs. (3)–(4)): fraction of dies whose
    /// array leakage meets `l_max`, integrating the within-die Gaussian
    /// (Eq. (3)) over the inter-die distribution (Eq. (4)).
    pub fn leakage_yield(&self, sigma_inter: f64, l_max: f64, policy: Policy) -> f64 {
        gaussian_expect(sigma_inter, |corner| {
            self.org
                .leakage_bound_prob(self.cell_leak_stats(corner, policy), l_max)
        })
        .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::linspace;

    fn small_memory() -> SelfRepairingMemory {
        let mut cfg = SelfRepairConfig::default_70nm(64, 8);
        cfg.leak_samples = 150;
        SelfRepairingMemory::new(cfg)
    }

    #[test]
    fn classification_tracks_the_corner() {
        let m = small_memory();
        assert_eq!(m.classify(-0.12), VtRegion::LowVt);
        assert_eq!(m.classify(0.0), VtRegion::Nominal);
        assert_eq!(m.classify(0.12), VtRegion::HighVt);
    }

    #[test]
    fn applied_bias_signs() {
        let m = small_memory();
        assert!(m.applied_bias(-0.12) < 0.0, "leaky die gets RBB");
        assert_eq!(m.applied_bias(0.0), 0.0);
        assert!(m.applied_bias(0.12) > 0.0, "slow die gets FBB");
    }

    #[test]
    fn die_leakage_monotone_in_corner() {
        let m = small_memory();
        let low = m.die_leakage(-0.1, 0.0);
        let nom = m.die_leakage(0.0, 0.0);
        let high = m.die_leakage(0.1, 0.0);
        assert!(low > 2.0 * nom, "low-Vt die must leak: {low:e} vs {nom:e}");
        assert!(high < nom / 2.0);
    }

    #[test]
    fn rbb_reduces_die_leakage() {
        let m = small_memory();
        let zbb = m.die_leakage(-0.1, 0.0);
        let rbb = m.die_leakage(-0.1, -0.45);
        assert!(rbb < 0.6 * zbb, "RBB must cut leakage: {rbb:e} vs {zbb:e}");
    }

    #[test]
    fn response_improves_tail_corners() {
        let m = small_memory();
        let corners = linspace(-0.24, 0.24, 9);
        let resp = m.response(&corners).unwrap();
        // At the tails the repaired cell failure probability must be lower.
        let low_z = resp.p_cell(-0.20, Policy::Zbb);
        let low_r = resp.p_cell(-0.20, Policy::SelfRepair);
        assert!(low_r < low_z, "RBB tail: {low_r:.3e} vs {low_z:.3e}");
        let high_z = resp.p_cell(0.20, Policy::Zbb);
        let high_r = resp.p_cell(0.20, Policy::SelfRepair);
        assert!(high_r < high_z, "FBB tail: {high_r:.3e} vs {high_z:.3e}");
        // In region B both policies coincide.
        assert_eq!(
            resp.p_cell(0.0, Policy::Zbb),
            resp.p_cell(0.0, Policy::SelfRepair)
        );
    }

    #[test]
    fn self_repair_yield_dominates_zbb() {
        let m = small_memory();
        let corners = linspace(-0.3, 0.3, 11);
        let resp = m.response(&corners).unwrap();
        for &sigma in &[0.05, 0.10, 0.15] {
            let yz = resp.parametric_yield(sigma, Policy::Zbb);
            let yr = resp.parametric_yield(sigma, Policy::SelfRepair);
            assert!(
                yr >= yz - 1e-9,
                "sigma {sigma}: self-repair {yr:.4} must beat ZBB {yz:.4}"
            );
            assert!((0.0..=1.0).contains(&yz));
        }
        // At large sigma the improvement must be material (paper: 8-25 %).
        let yz = resp.parametric_yield(0.15, Policy::Zbb);
        let yr = resp.parametric_yield(0.15, Policy::SelfRepair);
        assert!(yr - yz > 0.02, "improvement too small: {yz:.4} -> {yr:.4}");
    }

    #[test]
    fn leakage_yield_improves_with_self_repair() {
        let m = small_memory();
        let corners = linspace(-0.3, 0.3, 11);
        let resp = m.response(&corners).unwrap();
        // Bound at 3x the nominal array leakage.
        let l_max = 3.0 * resp.array_leak_mean(0.0, Policy::Zbb);
        let lz = resp.leakage_yield(0.12, l_max, Policy::Zbb);
        let lr = resp.leakage_yield(0.12, l_max, Policy::SelfRepair);
        assert!(lr > lz, "leakage yield: {lr:.4} vs {lz:.4}");
    }

    #[test]
    fn yield_degrades_with_sigma() {
        let m = small_memory();
        let corners = linspace(-0.3, 0.3, 11);
        let resp = m.response(&corners).unwrap();
        let y1 = resp.parametric_yield(0.05, Policy::Zbb);
        let y2 = resp.parametric_yield(0.15, Policy::Zbb);
        assert!(y2 < y1, "more variation must hurt: {y1:.4} -> {y2:.4}");
    }
}
