//! The self-adaptive source-bias (ASB) engine — the calibration system of
//! the paper's Fig. 7.
//!
//! Per die, an initial calibration cycle raises the source bias one DAC
//! code at a time; at each step the BIST runs a March test, the register
//! bank collects faulty columns, and the counter compares against the
//! redundancy budget. The last bias whose faulty-column count fits within
//! the spare columns becomes `VSB(adaptive)` for that die — maximal
//! standby-leakage savings at a bounded hold-yield cost.

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use pvtm_bist::{BistController, Dac, Fault, FaultKind, MarchTest, MemoryModel};
use pvtm_device::Technology;
use pvtm_sram::{ArrayOrganization, CellLeakageModel, CellSizing, Conditions};

use crate::interp::lin_interp;
use crate::source_bias::HoldModelGrid;

/// Standby leakage tabulated over (corner × vsb), for fast per-die standby
/// power evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandbyLeakageGrid {
    corners: Vec<f64>,
    vsbs: Vec<f64>,
    /// Mean per-cell leakage \[A\], row-major `[corner][vsb]`.
    means: Vec<f64>,
    vdd: f64,
}

impl StandbyLeakageGrid {
    /// Builds the grid by sampling `samples` cells per point (parallel).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate grid.
    pub fn build(
        tech: &Technology,
        sizing: CellSizing,
        corners: Vec<f64>,
        vsbs: Vec<f64>,
        samples: usize,
    ) -> Self {
        assert!(corners.len() >= 2 && vsbs.len() >= 2, "grid too small");
        let model = CellLeakageModel::new(tech, sizing);
        let points: Vec<(usize, usize)> = (0..corners.len())
            .flat_map(|ci| (0..vsbs.len()).map(move |vi| (ci, vi)))
            .collect();
        let mut means_idx: Vec<(usize, f64)> = points
            .par_iter()
            .map(|&(ci, vi)| {
                let cond = Conditions::standby(tech, vsbs[vi]);
                let mut rng = pvtm_stats::rng::substream(0x1EAF, (ci * 1000 + vi) as u64);
                let stats = model.population_stats(corners[ci], &cond, samples, &mut rng);
                (ci * vsbs.len() + vi, stats.mean)
            })
            .collect();
        means_idx.sort_by_key(|&(i, _)| i);
        Self {
            means: means_idx.into_iter().map(|(_, m)| m).collect(),
            corners,
            vsbs,
            vdd: tech.vdd(),
        }
    }

    /// Mean per-cell standby leakage at (corner, vsb) \[A\], bilinear in
    /// the log of the leakage.
    pub fn cell_leakage(&self, corner: f64, vsb: f64) -> f64 {
        // Interpolate ln(leakage) along vsb at the two bracketing corners,
        // then along the corner axis.
        let c = corner.clamp(
            self.corners[0],
            *self
                .corners
                .last()
                .expect("corner table is non-empty by construction"),
        );
        let i = self
            .corners
            .partition_point(|&v| v < c)
            .clamp(1, self.corners.len() - 1);
        let (c0, c1) = (self.corners[i - 1], self.corners[i]);
        let row = |ci: usize| -> f64 {
            let lys: Vec<f64> = (0..self.vsbs.len())
                .map(|vi| self.means[ci * self.vsbs.len() + vi].max(1e-300).ln())
                .collect();
            lin_interp(&self.vsbs, &lys, vsb)
        };
        let (y0, y1) = (row(i - 1), row(i));
        let t = if c1 > c0 { (c - c0) / (c1 - c0) } else { 0.0 };
        (y0 + (y1 - y0) * t).exp()
    }

    /// Standby power of an array of `cells` cells \[W\]
    /// (`VDD · N · I_cell`).
    pub fn standby_power(&self, corner: f64, vsb: f64, cells: usize) -> f64 {
        self.vdd * cells as f64 * self.cell_leakage(corner, vsb)
    }
}

/// Configuration of the ASB engine.
#[derive(Debug, Clone)]
pub struct AsbConfig {
    /// Array the BIST calibrates (the paper demonstrates on 2 KB / 32 KB
    /// arrays with 5 % column redundancy).
    pub org: ArrayOrganization,
    /// The source-bias DAC.
    pub dac: Dac,
    /// March algorithm run at each calibration step.
    pub march: MarchTest,
    /// Sigma of the per-die calibration-to-use drift \[V\]: at use time a
    /// die's effective retention thresholds sit `|N(0, use_guard²)|` lower
    /// than at calibration (temperature and supply drift between the BIST
    /// run and the field), so use-time fault counts are evaluated at
    /// `vsb + drift`. Dies whose drift exceeds the DAC back-off can lose
    /// hold margin — the small-but-nonzero hold-yield loss the paper
    /// reports (1-5 %).
    pub use_guard: f64,
    /// DAC codes backed off from the last passing calibration step before
    /// committing `VSB(adaptive)` — the guard band that keeps use-time
    /// drift from immediately exhausting the redundancy the calibration
    /// saturated.
    pub backoff_codes: u32,
}

impl AsbConfig {
    /// Paper-like default: 2 KB array, 5 % redundancy, 5-bit DAC over
    /// 0.75 V, March C−.
    pub fn default_2kb() -> Self {
        Self {
            org: ArrayOrganization::with_capacity_kib(2, 0.05),
            dac: Dac::new(5, 0.75),
            march: MarchTest::march_c_minus(),
            use_guard: 0.01,
            backoff_codes: 1,
        }
    }
}

/// One step of the calibration loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsbStep {
    /// DAC code applied.
    pub code: u32,
    /// Source bias at that code \[V\].
    pub vsb: f64,
    /// Faulty columns the BIST counted.
    pub faulty_columns: usize,
}

/// Result of calibrating one die.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsbOutcome {
    /// Applied DAC code (after the back-off guard band).
    pub code: u32,
    /// Last DAC code that passed the redundancy check.
    pub limit_code: u32,
    /// `VSB(adaptive)` of this die \[V\].
    pub vsb: f64,
    /// The calibration trajectory.
    pub steps: Vec<AsbStep>,
}

/// Per-die evaluation for the population studies (paper Figs. 8–10).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DieEvaluation {
    /// The die's inter-die corner \[V\].
    pub corner: f64,
    /// `VSB(adaptive)` found by the calibration.
    pub vsb_adaptive: f64,
    /// Faulty columns at zero source bias.
    pub faulty_cols_zero: usize,
    /// Faulty columns at `VSB(opt)`.
    pub faulty_cols_opt: usize,
    /// Faulty columns at `VSB(adaptive)`.
    pub faulty_cols_adaptive: usize,
    /// Standby power at zero bias \[W\].
    pub power_zero: f64,
    /// Standby power at `VSB(opt)` \[W\].
    pub power_opt: f64,
    /// Standby power at `VSB(adaptive)` \[W\].
    pub power_adaptive: f64,
}

impl DieEvaluation {
    /// Whether the die survives hold-wise under each scheme (faulty
    /// columns within the spare budget): `(zero, opt, adaptive)`.
    pub fn hold_ok(&self, spares: usize) -> (bool, bool, bool) {
        (
            self.faulty_cols_zero <= spares,
            self.faulty_cols_opt <= spares,
            self.faulty_cols_adaptive <= spares,
        )
    }
}

/// The ASB engine: hold-model grid + leakage grid + BIST configuration.
#[derive(Debug, Clone)]
pub struct AsbEngine {
    hold: HoldModelGrid,
    leak: StandbyLeakageGrid,
    cfg: AsbConfig,
}

impl AsbEngine {
    /// Creates an engine from prebuilt grids.
    pub fn new(hold: HoldModelGrid, leak: StandbyLeakageGrid, cfg: AsbConfig) -> Self {
        Self { hold, leak, cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &AsbConfig {
        &self.cfg
    }

    /// The hold-model grid.
    pub fn hold_grid(&self) -> &HoldModelGrid {
        &self.hold
    }

    /// The standby-leakage grid.
    pub fn leakage_grid(&self) -> &StandbyLeakageGrid {
        &self.leak
    }

    /// Samples one die's calibration-to-use drift \[V\] (half-normal with
    /// the configured sigma).
    pub fn sample_drift(&self, rng: &mut impl Rng) -> f64 {
        let g: f64 = StandardNormal.sample(rng);
        (self.cfg.use_guard * g).abs()
    }

    /// Builds the behavioural memory of one die at a corner: every cell
    /// gets an RDF sample, and cells whose hold slack dies within the grid
    /// receive a [`FaultKind::Retention`] at their personal threshold.
    ///
    /// Cells are visited in row-major order, six normals each. The normals
    /// are drawn a block of cells at a time into a stack buffer, which
    /// consumes the generator exactly as drawing them cell by cell does.
    pub fn build_die(&self, corner: f64, rng: &mut impl Rng) -> MemoryModel {
        const BLOCK: usize = 64;
        let org = &self.cfg.org;
        let mut mem = MemoryModel::new(org.rows, org.cols);
        let profile = self.hold.profile_at(corner);
        let cells = org.rows * org.cols;
        let mut normals = [0.0; 6 * BLOCK];
        for start in (0..cells).step_by(BLOCK) {
            let block = &mut normals[..6 * BLOCK.min(cells - start)];
            StandardNormal.fill(rng, block);
            for (cell, z) in (start..).zip(block.as_chunks::<6>().0) {
                if let Some(min_vsb) = profile.min_vsb(z) {
                    mem.inject(Fault {
                        row: cell / org.cols,
                        col: cell % org.cols,
                        kind: FaultKind::Retention { min_vsb },
                    });
                }
            }
        }
        mem
    }

    /// Runs the Fig. 7 calibration loop: raise the DAC code until the
    /// faulty-column counter exceeds the spare budget, then settle on the
    /// last passing code.
    pub fn calibrate(&self, mem: &mut MemoryModel) -> AsbOutcome {
        let bist = BistController::new();
        let spares = self.cfg.org.redundant_cols;
        let mut steps = Vec::new();
        let mut last_good: Option<(u32, f64)> = None;
        for code in 0..self.cfg.dac.codes() {
            let vsb = self.cfg.dac.voltage(code);
            mem.set_vsb(vsb);
            let report = bist
                .run(&self.cfg.march, mem)
                .expect("the march ran on this memory, so failure columns are in range");
            let faulty = report.faulty_columns();
            steps.push(AsbStep {
                code,
                vsb,
                faulty_columns: faulty,
            });
            if faulty <= spares {
                last_good = Some((code, vsb));
            } else {
                break;
            }
        }
        let (limit_code, _) = last_good.unwrap_or((0, 0.0));
        let code = limit_code.saturating_sub(self.cfg.backoff_codes);
        let vsb = if last_good.is_some() {
            self.cfg.dac.voltage(code)
        } else {
            0.0
        };
        mem.set_vsb(vsb);
        AsbOutcome {
            code,
            limit_code,
            vsb,
            steps,
        }
    }

    /// Faulty-column count of a die at a fixed source bias (one BIST run).
    pub fn faulty_columns_at(&self, mem: &mut MemoryModel, vsb: f64) -> usize {
        mem.set_vsb(vsb);
        BistController::new()
            .run(&self.cfg.march, mem)
            .expect("the march ran on this memory, so failure columns are in range")
            .faulty_columns()
    }

    /// Full evaluation of one die: calibration plus the comparison points
    /// (zero bias and the design-time `VSB(opt)`).
    pub fn evaluate_die(&self, corner: f64, vsb_opt: f64, rng: &mut impl Rng) -> DieEvaluation {
        let mut mem = self.build_die(corner, rng);
        let outcome = self.calibrate(&mut mem);
        let drift = self.sample_drift(rng);
        let faulty_cols_zero = self.faulty_columns_at(&mut mem, drift);
        let faulty_cols_opt = self.faulty_columns_at(&mut mem, vsb_opt + drift);
        let faulty_cols_adaptive = self.faulty_columns_at(&mut mem, outcome.vsb + drift);
        let cells = self.cfg.org.cells();
        DieEvaluation {
            corner,
            vsb_adaptive: outcome.vsb,
            faulty_cols_zero,
            faulty_cols_opt,
            faulty_cols_adaptive,
            power_zero: self.leak.standby_power(corner, 0.0, cells),
            power_opt: self.leak.standby_power(corner, vsb_opt, cells),
            power_adaptive: self.leak.standby_power(corner, outcome.vsb, cells),
        }
    }

    /// Evaluates a die population with corners `N(0, sigma²)` (parallel,
    /// deterministic in `seed`).
    pub fn run_population(
        &self,
        dies: usize,
        sigma_inter: f64,
        vsb_opt: f64,
        seed: u64,
    ) -> Vec<DieEvaluation> {
        (0..dies as u64)
            .into_par_iter()
            .map(|die| {
                let mut rng = pvtm_stats::rng::substream(seed, die);
                let g: f64 = StandardNormal.sample(&mut rng);
                let corner = sigma_inter * g;
                self.evaluate_die(corner, vsb_opt, &mut rng)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::linspace;
    use crate::source_bias::SourceBiasAnalyzer;
    use pvtm_sram::AnalysisConfig;

    fn engine() -> AsbEngine {
        let tech = Technology::predictive_70nm();
        let sizing = CellSizing::default_for(&tech);
        let analyzer = SourceBiasAnalyzer::new(&tech, sizing, AnalysisConfig::default());
        let corners = linspace(-0.15, 0.15, 4);
        let vsbs = linspace(0.30, 0.74, 9);
        let hold = HoldModelGrid::build(&analyzer, corners.clone(), vsbs.clone()).unwrap();
        let leak = StandbyLeakageGrid::build(&tech, sizing, corners, vsbs, 120);
        // Tiny array so tests stay fast.
        let cfg = AsbConfig {
            org: ArrayOrganization::new(32, 64, 3),
            dac: Dac::new(4, 0.74),
            march: MarchTest::march_c_minus(),
            use_guard: 0.0,
            backoff_codes: 0,
        };
        AsbEngine::new(hold, leak, cfg)
    }

    #[test]
    fn calibration_respects_the_redundancy_budget() {
        let e = engine();
        let mut rng = pvtm_stats::rng::substream(5, 0);
        for corner in [-0.1, 0.0, 0.1] {
            let mut mem = e.build_die(corner, &mut rng);
            let outcome = e.calibrate(&mut mem);
            let faulty = e.faulty_columns_at(&mut mem, outcome.vsb);
            assert!(
                faulty <= e.config().org.redundant_cols,
                "corner {corner}: {faulty} faulty columns at vsb {}",
                outcome.vsb
            );
            // The trajectory is recorded and starts at code 0.
            assert_eq!(outcome.steps[0].code, 0);
        }
    }

    #[test]
    fn calibration_is_maximal() {
        // One more DAC step than the selected code must violate the budget
        // (unless the DAC range was exhausted).
        let e = engine();
        let mut rng = pvtm_stats::rng::substream(6, 0);
        let mut mem = e.build_die(-0.05, &mut rng);
        let outcome = e.calibrate(&mut mem);
        if outcome.limit_code + 1 < e.config().dac.codes() {
            let next_vsb = e.config().dac.voltage(outcome.limit_code + 1);
            let faulty = e.faulty_columns_at(&mut mem, next_vsb);
            assert!(
                faulty > e.config().org.redundant_cols,
                "code {} was not maximal ({faulty} faulty at the next step)",
                outcome.limit_code
            );
        }
    }

    #[test]
    fn standby_power_falls_with_vsb_and_corner() {
        let e = engine();
        let g = e.leakage_grid();
        assert!(g.standby_power(0.0, 0.5, 1000) < g.standby_power(0.0, 0.3, 1000));
        assert!(g.standby_power(0.1, 0.4, 1000) < g.standby_power(-0.1, 0.4, 1000));
    }

    #[test]
    fn population_is_deterministic_and_bounded() {
        let e = engine();
        let a = e.run_population(6, 0.05, 0.5, 42);
        let b = e.run_population(6, 0.05, 0.5, 42);
        assert_eq!(a, b, "same seed must reproduce the population");
        for die in &a {
            assert!(die.vsb_adaptive >= 0.0);
            assert!(die.power_adaptive <= die.power_zero * 1.000001);
            assert!(die.faulty_cols_adaptive <= e.config().org.redundant_cols);
        }
    }

    #[test]
    fn adaptive_beats_opt_on_hold_failures_for_weak_dies() {
        // Across a small population, the adaptive scheme must never have
        // more hold-failing dies than VSB(opt) applied blindly.
        let e = engine();
        let vsb_opt = 0.60;
        let pop = e.run_population(10, 0.06, vsb_opt, 9);
        let spares = e.config().org.redundant_cols;
        let fail_opt = pop.iter().filter(|d| d.faulty_cols_opt > spares).count();
        let fail_adp = pop
            .iter()
            .filter(|d| d.faulty_cols_adaptive > spares)
            .count();
        assert!(
            fail_adp <= fail_opt,
            "adaptive {fail_adp} vs opt {fail_opt}"
        );
        assert_eq!(fail_adp, 0, "adaptive never exceeds the budget");
    }
}
