//! The self-repairing SRAM: leakage-monitor binning + adaptive body bias
//! (paper §III, Fig. 4a).
//!
//! A die's array leakage identifies its inter-die corner (monitor +
//! comparators); the body-bias generator then applies RBB to leaky low-Vt
//! dies (suppressing read/hold failures and compressing the leakage
//! spread) and FBB to slow high-Vt dies (suppressing access/write
//! failures).
//!
//! The yield integrals of Eqs. (1)–(4) read two independent quantities
//! over the inter-die corner distribution, each tabulated on a grid the
//! memory bins once ([`SelfRepairingMemory::grid`]): cell failure
//! probabilities for the parametric yield of Eq. (1)
//! ([`SelfRepairingMemory::failure_response`]), and cell leakage
//! statistics for the leakage yield of Eqs. (3)–(4)
//! ([`SelfRepairingMemory::leakage_response`]). A caller builds the
//! tables it reads; the integrals interpolate them between grid points.

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

/// A corner binned by [`SelfRepairingMemory::grid`], on which both tables
/// of a design are built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Inter-die Vt shift \[V\].
    pub corner: f64,
    /// Region assigned by the leakage binning.
    pub region: VtRegion,
    /// Body bias the self-repairing memory applies here \[V\].
    pub bias: f64,
}

impl GridPoint {
    fn with<T>(self, zbb: T, abb: T) -> CornerPoint<T> {
        CornerPoint {
            corner: self.corner,
            region: self.region,
            bias: self.bias,
            zbb,
            abb,
        }
    }
}

/// One quantity of the design at one inter-die corner, with zero body bias
/// and with the bias the self-repairing memory applies there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerPoint<T> {
    /// Inter-die Vt shift \[V\].
    pub corner: f64,
    /// Region assigned by the leakage binning.
    pub region: VtRegion,
    /// Body bias the self-repairing memory applies here \[V\].
    pub bias: f64,
    /// The quantity with zero body bias.
    pub zbb: T,
    /// The quantity with the applied bias.
    pub abb: T,
}

/// One quantity tabulated over a binned grid, for the yield integrals:
/// [`SelfRepairingMemory::failure_response`] or
/// [`SelfRepairingMemory::leakage_response`].
#[derive(Debug, Clone, PartialEq)]
pub struct CornerResponse<T> {
    org: ArrayOrganization,
    points: Vec<CornerPoint<T>>,
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

    /// Cell failure probabilities at a corner / bias against a caller-held
    /// evaluator (hold evaluated at the configured standby source bias).
    fn cell_failure_probs_with(
        &self,
        ev: &mut pvtm_sram::CellEvaluator,
        corner: f64,
        body_bias: f64,
    ) -> Result<FailureProbs, CircuitError> {
        let cond = Conditions::standby(&self.cfg.tech, self.cfg.hold_vsb).with_body_bias(body_bias);
        self.fa.failure_probs_with(ev, corner, &cond)
    }

    /// Bins a corner grid: the region the monitor assigns to a die at each
    /// corner and the bias the generator applies there.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two corners.
    pub fn grid(&self, corners: &[f64]) -> Vec<GridPoint> {
        assert!(corners.len() >= 2, "need a corner grid");
        corners
            .iter()
            .map(|&corner| {
                let region = self.classify(corner);
                GridPoint {
                    corner,
                    region,
                    bias: self.cfg.generator.bias_for(region),
                }
            })
            .collect()
    }

    /// Tabulates the cell failure probabilities over a binned grid
    /// (parallel over corners). A corner solves cold at zero bias, then
    /// at the applied bias warm from it.
    ///
    /// # Errors
    ///
    /// Propagates the first DC-solver failure in grid order.
    pub fn failure_response(
        &self,
        grid: &[GridPoint],
    ) -> Result<CornerResponse<FailureProbs>, CircuitError> {
        let points: Result<Vec<_>, CircuitError> = self.fa.sweep(grid, |ev, _, g| {
            let zbb = self.cell_failure_probs_with(ev, g.corner, 0.0)?;
            // pvtm-lint: allow(no-float-eq) bias is a configured discrete level; exact zero means ZBB
            let abb = if g.bias == 0.0 {
                zbb
            } else {
                self.cell_failure_probs_with(ev, g.corner, g.bias)?
            };
            Ok(g.with(zbb, abb))
        });
        Ok(CornerResponse {
            org: self.cfg.org,
            points: points?,
        })
    }

    /// Tabulates the per-cell leakage statistics over a binned grid.
    pub fn leakage_response(&self, grid: &[GridPoint]) -> CornerResponse<LeakageStats> {
        let points = grid
            .iter()
            .map(|g| {
                let zbb = self.cell_leak_stats(g.corner, 0.0);
                // pvtm-lint: allow(no-float-eq) bias is a configured discrete level; exact zero means ZBB
                let abb = if g.bias == 0.0 {
                    zbb
                } else {
                    self.cell_leak_stats(g.corner, g.bias)
                };
                g.with(zbb, abb)
            })
            .collect();
        CornerResponse {
            org: self.cfg.org,
            points,
        }
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Zero body bias everywhere (the unrepaired baseline).
    Zbb,
    /// Monitor-driven adaptive body bias (the self-repairing memory).
    SelfRepair,
}

impl<T: Copy> CornerResponse<T> {
    /// The tabulated points.
    pub fn points(&self) -> &[CornerPoint<T>] {
        &self.points
    }

    /// The same table under the array organization `org`. A per-cell
    /// table does not depend on the organization, so this is the table of
    /// any memory that shares this one's cell, analyzer and hold bias and
    /// bins the grid alike.
    pub(crate) fn with_org(self, org: ArrayOrganization) -> Self {
        Self { org, ..self }
    }

    /// `f` of the policy's column as a function of the corner,
    /// log-interpolated between the grid points (the tables are built
    /// once, for evaluating it at many corners).
    fn curve(&self, policy: Policy, f: impl Fn(T) -> f64) -> impl Fn(f64) -> f64 {
        let xs: Vec<f64> = self.points.iter().map(|p| p.corner).collect();
        let ys: Vec<f64> = self
            .points
            .iter()
            .map(|p| match policy {
                Policy::Zbb => f(p.zbb),
                Policy::SelfRepair => f(p.abb),
            })
            .collect();
        move |corner| log_interp(&xs, &ys, corner)
    }
}

impl CornerResponse<FailureProbs> {
    /// Overall cell failure probability at an arbitrary corner
    /// (log-interpolated).
    pub fn p_cell(&self, corner: f64, policy: Policy) -> f64 {
        self.p_cell_curve(policy)(corner)
    }

    /// [`Self::p_cell`] as a function of the corner.
    fn p_cell_curve(&self, policy: Policy) -> impl Fn(f64) -> f64 {
        let overall = self.curve(policy, |p| p.overall());
        move |corner| overall(corner).min(1.0)
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
        // The memory failure probability at every point, with the tables
        // and the binomial coefficients built once for the whole integral.
        let p_cell = self.p_cell_curve(policy);
        let mut model = self.org.redundancy_model();
        gaussian_expect(sigma_inter, |corner| {
            1.0 - model.memory_failure_prob(p_cell(corner))
        })
        .clamp(0.0, 1.0)
    }
}

impl CornerResponse<LeakageStats> {
    /// Per-cell leakage statistics as a function of the corner (the mean
    /// spans decades across corners, so both moments are log-interpolated).
    fn cell_leak_curve(&self, policy: Policy) -> impl Fn(f64) -> LeakageStats {
        let mean = self.curve(policy, |s| s.mean);
        let std_dev = self.curve(policy, |s| s.std_dev);
        move |corner| LeakageStats {
            mean: mean(corner),
            std_dev: std_dev(corner),
        }
    }

    /// Array (memory) leakage mean at a corner \[A\].
    pub fn array_leak_mean(&self, corner: f64, policy: Policy) -> f64 {
        self.array_leak_curve(policy)(corner)
    }

    /// [`Self::array_leak_mean`] as a function of the corner (the tables
    /// are built once, for evaluating it at many corners).
    pub(crate) fn array_leak_curve(&self, policy: Policy) -> impl Fn(f64) -> f64 {
        let (org, stats) = (self.org, self.cell_leak_curve(policy));
        move |corner| org.leakage_stats(stats(corner)).mean
    }

    /// Leakage yield `L_Yield` (paper Eqs. (3)–(4)): fraction of dies whose
    /// array leakage meets `l_max`, integrating the within-die Gaussian
    /// (Eq. (3)) over the inter-die distribution (Eq. (4)).
    pub fn leakage_yield(&self, sigma_inter: f64, l_max: f64, policy: Policy) -> f64 {
        let stats = self.cell_leak_curve(policy);
        gaussian_expect(sigma_inter, |corner| {
            self.org.leakage_bound_prob(stats(corner), l_max)
        })
        .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::linspace;
    use rayon::prelude::*;

    fn small_memory() -> SelfRepairingMemory {
        let mut cfg = SelfRepairConfig::default_70nm(64, 8);
        cfg.leak_samples = 150;
        SelfRepairingMemory::new(cfg)
    }

    /// One corner of the one-pass response, which tabulated both
    /// quantities at every corner for every caller.
    #[derive(Debug, Clone, Copy)]
    struct OraclePoint {
        corner: f64,
        region: VtRegion,
        bias: f64,
        probs_zbb: FailureProbs,
        probs_abb: FailureProbs,
        leak_zbb: LeakageStats,
        leak_abb: LeakageStats,
    }

    impl SelfRepairingMemory {
        /// The one-pass response: binning, failure probabilities and
        /// leakage statistics of each corner in one parallel item.
        fn oracle_response(&self, corners: &[f64]) -> Result<Vec<OraclePoint>, CircuitError> {
            assert!(corners.len() >= 2, "need a corner grid");
            let ctx = pvtm_telemetry::parallel_context();
            let points: Result<Vec<OraclePoint>, CircuitError> = corners
                .par_iter()
                .map_init(
                    || (pvtm_telemetry::adopt(&ctx), self.fa.evaluator()),
                    |(_ctx, ev), &corner| {
                        ev.invalidate_warm();
                        let region = self.classify(corner);
                        let bias = self.cfg.generator.bias_for(region);
                        let probs_zbb = self.cell_failure_probs_with(ev, corner, 0.0)?;
                        let probs_abb = if bias == 0.0 {
                            probs_zbb
                        } else {
                            self.cell_failure_probs_with(ev, corner, bias)?
                        };
                        let leak_zbb = self.cell_leak_stats(corner, 0.0);
                        let leak_abb = if bias == 0.0 {
                            leak_zbb
                        } else {
                            self.cell_leak_stats(corner, bias)
                        };
                        Ok(OraclePoint {
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
            points
        }
    }

    /// The one-pass response's yield evaluations, rebuilding their
    /// interpolation tables at every call.
    struct Oracle {
        org: ArrayOrganization,
        points: Vec<OraclePoint>,
    }

    impl Oracle {
        fn corners(&self) -> Vec<f64> {
            self.points.iter().map(|p| p.corner).collect()
        }

        fn p_cell(&self, corner: f64, policy: Policy) -> f64 {
            let ys: Vec<f64> = self
                .points
                .iter()
                .map(|p| match policy {
                    Policy::Zbb => p.probs_zbb.overall(),
                    Policy::SelfRepair => p.probs_abb.overall(),
                })
                .collect();
            log_interp(&self.corners(), &ys, corner).min(1.0)
        }

        fn parametric_yield(&self, sigma_inter: f64, policy: Policy) -> f64 {
            gaussian_expect(sigma_inter, |corner| {
                1.0 - self.org.memory_failure_prob(self.p_cell(corner, policy))
            })
            .clamp(0.0, 1.0)
        }

        fn cell_leak_stats(&self, corner: f64, policy: Policy) -> LeakageStats {
            let xs = self.corners();
            let pick = |f: &dyn Fn(&OraclePoint) -> f64| -> f64 {
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

        fn leakage_yield(&self, sigma_inter: f64, l_max: f64, policy: Policy) -> f64 {
            gaussian_expect(sigma_inter, |corner| {
                self.org
                    .leakage_bound_prob(self.cell_leak_stats(corner, policy), l_max)
            })
            .clamp(0.0, 1.0)
        }
    }

    #[test]
    fn both_tables_match_the_one_pass_response_bit_for_bit() {
        // 13 points over ±0.30 V: the ±0.05 V points sit on the region
        // boundary, so the binning there is as fragile as it gets.
        let corners = linspace(-0.30, 0.30, 13);
        let probs = |p: FailureProbs| p.as_array().map(f64::to_bits);
        let leak = |s: LeakageStats| [s.mean.to_bits(), s.std_dev.to_bits()];
        // The default generator, and the bias-level ablation's weakest.
        for generator in [
            BodyBiasGenerator::default(),
            BodyBiasGenerator::new(-0.15, 0.15),
        ] {
            let mut cfg = SelfRepairConfig::default_70nm(64, 8);
            cfg.leak_samples = 150;
            cfg.generator = generator;
            let m = SelfRepairingMemory::new(cfg);
            let oracle = Oracle {
                org: m.cfg.org,
                points: m.oracle_response(&corners).unwrap(),
            };
            let grid = m.grid(&corners);
            let failure = m.failure_response(&grid).unwrap();
            let leakage = m.leakage_response(&grid);
            assert_eq!(failure.points().len(), corners.len());
            assert_eq!(leakage.points().len(), corners.len());
            let regions: Vec<VtRegion> = grid.iter().map(|g| g.region).collect();
            for r in [VtRegion::LowVt, VtRegion::Nominal, VtRegion::HighVt] {
                assert!(regions.contains(&r), "{r:?} missing from {regions:?}");
            }
            for ((o, f), l) in oracle
                .points
                .iter()
                .zip(failure.points())
                .zip(leakage.points())
            {
                for (corner, region, bias) in
                    [(f.corner, f.region, f.bias), (l.corner, l.region, l.bias)]
                {
                    assert_eq!(corner.to_bits(), o.corner.to_bits());
                    assert_eq!(region, o.region, "corner {corner}");
                    assert_eq!(bias.to_bits(), o.bias.to_bits(), "corner {corner}");
                }
                assert_eq!(probs(f.zbb), probs(o.probs_zbb), "corner {}", o.corner);
                assert_eq!(probs(f.abb), probs(o.probs_abb), "corner {}", o.corner);
                assert_eq!(leak(l.zbb), leak(o.leak_zbb), "corner {}", o.corner);
                assert_eq!(leak(l.abb), leak(o.leak_abb), "corner {}", o.corner);
            }
            let l_max = 2.5 * leakage.array_leak_mean(0.0, Policy::Zbb);
            for policy in [Policy::Zbb, Policy::SelfRepair] {
                let array_leak = leakage.array_leak_curve(policy);
                for corner in [-0.4, -0.27, -0.05, 0.0, 0.12, 0.3] {
                    let p = oracle.p_cell(corner, policy);
                    assert_eq!(failure.p_cell(corner, policy).to_bits(), p.to_bits());
                    assert_eq!(
                        failure.expected_faulty_columns(corner, policy).to_bits(),
                        oracle.org.expected_faulty_columns(p).to_bits()
                    );
                    let s = oracle.cell_leak_stats(corner, policy);
                    let mean = oracle.org.leakage_stats(s).mean.to_bits();
                    assert_eq!(leakage.array_leak_mean(corner, policy).to_bits(), mean);
                    assert_eq!(array_leak(corner).to_bits(), mean);
                }
                for sigma in [0.0, 0.05, 0.12] {
                    assert_eq!(
                        failure.parametric_yield(sigma, policy).to_bits(),
                        oracle.parametric_yield(sigma, policy).to_bits()
                    );
                    assert_eq!(
                        leakage.leakage_yield(sigma, l_max, policy).to_bits(),
                        oracle.leakage_yield(sigma, l_max, policy).to_bits()
                    );
                }
            }
        }
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
        let resp = m.failure_response(&m.grid(&corners)).unwrap();
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
        let resp = m.failure_response(&m.grid(&corners)).unwrap();
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
        let resp = m.leakage_response(&m.grid(&corners));
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
        let resp = m.failure_response(&m.grid(&corners)).unwrap();
        let y1 = resp.parametric_yield(0.05, Policy::Zbb);
        let y2 = resp.parametric_yield(0.15, Policy::Zbb);
        assert!(y2 < y1, "more variation must hurt: {y1:.4} -> {y2:.4}");
    }
}
