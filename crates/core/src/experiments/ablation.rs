//! Ablation studies of the design choices the paper leaves implicit:
//! monitor precision, DAC resolution, body-bias strength, March algorithm
//! choice, and temperature sensitivity of the leakage binning.

use rand::Rng;
use rand_distr::Distribution;
use rayon::prelude::*;
use serde::Serialize;
use std::fmt;

use pvtm_bist::{BistController, Dac, Fault, FaultKind, MarchTest, MemoryModel};
use pvtm_circuit::CircuitError;
use pvtm_sram::{CellLeakageModel, Conditions, FailureAnalyzer};

use super::{baseline, Effort};
use crate::body_bias::BodyBiasGenerator;
use crate::interp::{linspace, log_interp};
use crate::monitor::{LeakageBinner, LeakageMonitor, VtRegion};
use crate::self_repair::{Policy, SelfRepairConfig, SelfRepairingMemory};

// ------------------------------------------------------- monitor ablation

/// One monitor-offset point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MonitorAblationRow {
    /// Output-referred comparator/monitor offset sigma \[V\].
    pub offset_sigma: f64,
    /// Fraction of dies binned into a different region than the ideal
    /// monitor would choose.
    pub misbin_rate: f64,
    /// Parametric yield with this monitor at σ(Vt_inter) = 100 mV.
    pub parametric_yield: f64,
}

/// Monitor-precision ablation: how much comparator offset the self-repair
/// loop tolerates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MonitorAblation {
    /// Offset sweep.
    pub rows: Vec<MonitorAblationRow>,
    /// Yield with a perfect (oracle) monitor, for reference.
    pub oracle_yield: f64,
}

/// Runs the monitor ablation.
///
/// The CLT separation of array leakage (Fig. 3) gives the monitor volts of
/// margin per decision, so moderate offsets only scramble dies near the
/// region boundaries — where either bias choice is acceptable. The yield
/// should therefore degrade gracefully until the offset becomes comparable
/// to the inter-region output spacing.
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn ablation_monitor(effort: Effort) -> Result<MonitorAblation, CircuitError> {
    let _span = pvtm_telemetry::span("ablation_monitor");
    let (tech, sizing, config) = baseline();
    let cfg = SelfRepairConfig::default_70nm(64, 102);
    let memory = SelfRepairingMemory::new(cfg);
    let sigma_inter = 0.10;

    // Tabulate p_cell(corner, bias) for the three bias levels.
    let corners = linspace(-0.30, 0.30, effort.corners.max(7));
    let fa = FailureAnalyzer::new(&tech, sizing, config);
    let gen = memory.config().generator;
    let biases = [gen.rbb(), 0.0, gen.fbb()];
    let hold_vsb = memory.config().hold_vsb;
    let mut p_cell = vec![vec![0.0f64; corners.len()]; 3];
    let cells: Vec<(usize, usize)> = (0..3)
        .flat_map(|bi| (0..corners.len()).map(move |ci| (bi, ci)))
        .collect();
    let flat: Vec<(usize, usize, f64, bool)> = fa.sweep(&cells, |ev, i, &(bi, ci)| {
        let cond = Conditions::standby(&tech, hold_vsb).with_body_bias(biases[bi]);
        match fa.failure_probs_with(ev, corners[ci], &cond) {
            Ok(m) => (bi, ci, m.overall(), false),
            Err(e) => {
                // Pessimistic substitution: a corner whose solve stays
                // unresolved after the rescue ladder is treated as certain
                // failure and quarantined.
                super::quarantine_corner(i as u64, corners[ci], &e);
                (bi, ci, 1.0, true)
            }
        }
    });
    let quarantined = flat.iter().filter(|(_, _, _, q)| *q).count() as u64;
    pvtm_circuit::check_quarantine(quarantined, flat.len() as u64)?;
    for (bi, ci, p, _) in flat {
        p_cell[bi][ci] = p;
    }
    // Die leakage vs corner (for the monitor input).
    let leak: Vec<f64> = corners
        .iter()
        .map(|&c| memory.die_leakage(c, 0.0))
        .collect();

    let org = memory.config().org;
    let dies = (effort.dies * 40).max(2_000);
    let yield_for = |binner: &LeakageBinner, noisy: bool, seed: u64| -> (f64, f64) {
        let mut rng = pvtm_stats::rng::substream(seed, 0);
        let mut model = org.redundancy_model();
        let mut pass = 0usize;
        let mut misbins = 0usize;
        for _ in 0..dies {
            let g: f64 = rand_distr::StandardNormal.sample(&mut rng);
            let corner = sigma_inter * g;
            let i_leak = log_interp(&corners, &leak, corner);
            let region = if noisy {
                binner.classify(i_leak, &mut rng)
            } else {
                binner.classify_ideal(i_leak)
            };
            if region != binner.classify_ideal(i_leak) {
                misbins += 1;
            }
            let bi = match region {
                VtRegion::LowVt => 0,
                VtRegion::Nominal => 1,
                VtRegion::HighVt => 2,
            };
            let p = log_interp(&corners, &p_cell[bi], corner).min(1.0);
            if rng.gen::<f64>() > model.memory_failure_prob(p) {
                pass += 1;
            }
        }
        (misbins as f64 / dies as f64, pass as f64 / dies as f64)
    };

    let (_, oracle_yield) = yield_for(memory.binner(), false, 0xAB1);
    let offsets = [0.0, 0.01, 0.03, 0.06, 0.12];
    // The rows' reference currents are `die_leakage` at the region-B
    // boundaries. They are not the production binner's: that draws its
    // boundary means from another stream in `SelfRepairingMemory::new`, so
    // the rows' `i_high` sits 4.5 % below the binner's and `i_low` 0.6 %
    // above it, by sampling noise alone.
    let i_high = memory.die_leakage(-memory.config().region_boundary, 0.0);
    let i_low = memory.die_leakage(memory.config().region_boundary, 0.0);
    let rows = offsets
        .iter()
        .enumerate()
        .map(|(i, &offset_sigma)| {
            let monitor = LeakageMonitor::new(
                memory.config().tech.vdd() / memory.binner().monitor().gain(),
                memory.config().tech.vdd(),
            )
            .with_offset_sigma(offset_sigma);
            let binner = LeakageBinner::from_current_thresholds(monitor, i_low, i_high);
            let (misbin_rate, parametric_yield) = yield_for(&binner, true, 0xAB2 + i as u64);
            MonitorAblationRow {
                offset_sigma,
                misbin_rate,
                parametric_yield,
            }
        })
        .collect();
    Ok(MonitorAblation { rows, oracle_yield })
}

impl fmt::Display for MonitorAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — monitor offset (64 KB, sigma_inter = 100 mV; oracle yield {:.1}%)",
            100.0 * self.oracle_yield
        )?;
        writeln!(f, "{:>10} {:>10} {:>8}", "offset", "misbinned", "yield")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8.0}mV {:>9.1}% {:>7.1}%",
                r.offset_sigma * 1e3,
                100.0 * r.misbin_rate,
                100.0 * r.parametric_yield
            )?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------- DAC ablation

/// One DAC-resolution point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DacAblationRow {
    /// DAC resolution in bits.
    pub bits: u8,
    /// Mean standby-power saving vs zero bias (ratio).
    pub mean_saving: f64,
    /// Hold-yield loss vs zero source bias (fraction of dies).
    pub hold_loss: f64,
}

/// DAC-resolution ablation for the ASB loop.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DacAblation {
    /// Bits sweep.
    pub rows: Vec<DacAblationRow>,
}

/// Runs the DAC ablation: a coarse DAC quantizes `VSB(adaptive)` far below
/// each die's ceiling (losing savings), while more bits converge on the
/// per-die optimum with diminishing returns.
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn ablation_dac(effort: Effort) -> Result<DacAblation, CircuitError> {
    let _span = pvtm_telemetry::span("ablation_dac");
    let (engine0, vsb_opt) = super::asb::build_engine(effort)?;
    let sigma = 0.06;
    let dies = effort.dies.clamp(24, 200);
    let rows = [3u8, 4, 5, 6]
        .iter()
        .map(|&bits| {
            let mut cfg = engine0.config().clone();
            cfg.dac = Dac::new(bits, cfg.dac.vref());
            let engine = crate::adaptive::AsbEngine::new(
                engine0.hold_grid().clone(),
                engine0.leakage_grid().clone(),
                cfg,
            );
            let pop = engine.run_population(dies, sigma, vsb_opt, 0xDAC0 + bits as u64);
            let spares = engine.config().org.redundant_cols;
            let mean = |f: &dyn Fn(&crate::adaptive::DieEvaluation) -> f64| -> f64 {
                pop.iter().map(f).sum::<f64>() / pop.len() as f64
            };
            let saving = mean(&|d| d.power_zero) / mean(&|d| d.power_adaptive);
            let ok_zero = pop.iter().filter(|d| d.faulty_cols_zero <= spares).count();
            let ok_adp = pop
                .iter()
                .filter(|d| d.faulty_cols_adaptive <= spares)
                .count();
            DacAblationRow {
                bits,
                mean_saving: saving,
                hold_loss: (ok_zero.saturating_sub(ok_adp)) as f64 / pop.len() as f64,
            }
        })
        .collect();
    Ok(DacAblation { rows })
}

impl fmt::Display for DacAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — DAC resolution of the ASB generator")?;
        writeln!(f, "{:>5} {:>12} {:>10}", "bits", "mean saving", "hold loss")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>5} {:>11.2}x {:>9.1}%",
                r.bits,
                r.mean_saving,
                100.0 * r.hold_loss
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------- bias-level ablation

/// One body-bias-strength point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BiasLevelRow {
    /// Magnitude of both RBB and FBB \[V\].
    pub level: f64,
    /// Parametric yield at σ(Vt_inter) = 120 mV.
    pub parametric_yield: f64,
    /// Leakage yield at the same σ (bound: 2.5× nominal array leakage).
    pub leakage_yield: f64,
}

/// Body-bias-strength ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BiasLevelAblation {
    /// Level sweep.
    pub rows: Vec<BiasLevelRow>,
}

/// Runs the bias-level ablation: weak bias under-corrects; too-strong bias
/// over-corrects the repaired corners into the *opposite* failure
/// mechanisms and pays the junction/diode leakage penalties of Fig. 5a —
/// the window the paper says bounds the usable FBB/RBB.
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn ablation_bias_levels(effort: Effort) -> Result<BiasLevelAblation, CircuitError> {
    let _span = pvtm_telemetry::span("ablation_bias_levels");
    let corners = linspace(-0.30, 0.30, effort.corners.max(7));
    let sigma = 0.12;
    let ctx = pvtm_telemetry::parallel_context();
    let rows: Result<Vec<BiasLevelRow>, CircuitError> = [0.15f64, 0.30, 0.45, 0.60]
        .par_iter()
        .map(|&level| {
            let _ctx = pvtm_telemetry::adopt(&ctx);
            let mut cfg = SelfRepairConfig::default_70nm(64, 102);
            cfg.generator = BodyBiasGenerator::new(-level, level);
            let memory = SelfRepairingMemory::new(cfg);
            let grid = memory.grid(&corners);
            let failure = memory.failure_response(&grid)?;
            let leakage = memory.leakage_response(&grid);
            let l_max = 2.5 * leakage.array_leak_mean(0.0, Policy::Zbb);
            Ok(BiasLevelRow {
                level,
                parametric_yield: failure.parametric_yield(sigma, Policy::SelfRepair),
                leakage_yield: leakage.leakage_yield(sigma, l_max, Policy::SelfRepair),
            })
        })
        .collect();
    Ok(BiasLevelAblation { rows: rows? })
}

impl fmt::Display for BiasLevelAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — body-bias strength (|RBB| = |FBB|, sigma_inter = 120 mV)"
        )?;
        writeln!(
            f,
            "{:>7} {:>12} {:>12}",
            "level", "param yield", "leak yield"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6.2}V {:>11.1}% {:>11.1}%",
                r.level,
                100.0 * r.parametric_yield,
                100.0 * r.leakage_yield
            )?;
        }
        Ok(())
    }
}

// --------------------------------------------------------- March ablation

/// Coverage of one March algorithm on a mixed fault soup.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MarchCoverageRow {
    /// Algorithm name.
    pub name: String,
    /// Operations per cell.
    pub ops_per_cell: usize,
    /// Fraction of injected faulty cells detected.
    pub coverage: f64,
}

/// March-algorithm comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MarchAblation {
    /// Per-algorithm coverage.
    pub rows: Vec<MarchCoverageRow>,
    /// Faults injected per trial.
    pub faults_per_trial: usize,
}

/// Compares the March algorithms' fault coverage on randomized soups of
/// stuck-at, transition, coupling and address-decoder faults — the
/// trade-off behind the "March Test Algorithms" box of the paper's Fig. 7.
pub fn ablation_march(effort: Effort) -> MarchAblation {
    let _span = pvtm_telemetry::span("ablation_march");
    let trials = (effort.dies * 4).max(60);
    let faults_per_trial = 6;
    let tests = [
        MarchTest::mats_plus(),
        MarchTest::march_c_minus(),
        MarchTest::march_a(),
        MarchTest::march_ss(),
    ];
    let rows = tests
        .iter()
        .map(|test| {
            let mut detected = 0usize;
            let mut injected = 0usize;
            for t in 0..trials {
                let mut rng = pvtm_stats::rng::substream(0x3A6C, t as u64);
                let mut mem = MemoryModel::new(16, 16);
                let mut sites = std::collections::BTreeSet::new();
                for _ in 0..faults_per_trial {
                    let row = rng.gen_range(0..16);
                    let col = rng.gen_range(0..16);
                    if !sites.insert((row, col)) {
                        continue;
                    }
                    let kind = match rng.gen_range(0..5) {
                        0 => FaultKind::StuckAt(rng.gen()),
                        1 => FaultKind::TransitionUp,
                        2 => FaultKind::TransitionDown,
                        3 => {
                            let agg_row = rng.gen_range(0..16);
                            let agg_col = rng.gen_range(0..16);
                            if (agg_row, agg_col) == (row, col) {
                                FaultKind::StuckAt(true)
                            } else {
                                FaultKind::CouplingInv { agg_row, agg_col }
                            }
                        }
                        _ => {
                            let to_row = rng.gen_range(0..16);
                            let to_col = rng.gen_range(0..16);
                            if (to_row, to_col) == (row, col) {
                                FaultKind::StuckAt(false)
                            } else {
                                FaultKind::AddressAlias { to_row, to_col }
                            }
                        }
                    };
                    mem.inject(Fault { row, col, kind });
                }
                injected += sites.len();
                let report = BistController::new()
                    .run(test, &mut mem)
                    .expect("the march ran on this memory, so failure columns are in range");
                let caught: std::collections::BTreeSet<(usize, usize)> = report
                    .march_result()
                    .failures
                    .iter()
                    .map(|f| (f.row, f.col))
                    .collect();
                // A fault is "detected" when its cell (or, for address
                // faults, any cell) produced a mismatch in this trial.
                detected += sites.iter().filter(|s| caught.contains(s)).count();
                if !caught.is_empty() {
                    // Address faults often manifest at the alias target.
                    detected += caught.difference(&sites).count().min(
                        sites
                            .len()
                            .saturating_sub(sites.iter().filter(|s| caught.contains(s)).count()),
                    );
                }
            }
            MarchCoverageRow {
                name: test.name().to_string(),
                ops_per_cell: test.ops_per_cell(),
                coverage: detected as f64 / injected as f64,
            }
        })
        .collect();
    MarchAblation {
        rows,
        faults_per_trial,
    }
}

impl fmt::Display for MarchAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — March algorithm coverage (mixed fault soup, {} faults/trial)",
            self.faults_per_trial
        )?;
        writeln!(f, "{:>12} {:>9} {:>9}", "algorithm", "ops/cell", "coverage")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>12} {:>9} {:>8.1}%",
                r.name,
                r.ops_per_cell,
                100.0 * r.coverage
            )?;
        }
        Ok(())
    }
}

// --------------------------------------------------- temperature ablation

/// One temperature point of the binning study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TemperatureRow {
    /// Die temperature \[K\].
    pub temp_k: f64,
    /// Nominal-die array leakage relative to 300 K.
    pub leakage_ratio: f64,
    /// Region the 300 K-calibrated binner assigns to a *nominal* die at
    /// this temperature.
    pub nominal_die_region: VtRegion,
}

/// Temperature sensitivity of the leakage binning.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TemperatureAblation {
    /// Temperature sweep.
    pub rows: Vec<TemperatureRow>,
}

/// Runs the temperature ablation: the paper's Fig. 3 specifies 27 °C for
/// the monitor; this shows why — leakage grows so fast with temperature
/// that references calibrated cold misbin *every* hot die as low-Vt, so a
/// real implementation must temperature-compensate the references.
pub fn ablation_temperature(effort: Effort) -> TemperatureAblation {
    let _span = pvtm_telemetry::span("ablation_temperature");
    let (tech, sizing, _) = baseline();
    let model = CellLeakageModel::new(&tech, sizing);
    let memory = SelfRepairingMemory::new(SelfRepairConfig::default_70nm(64, 102));
    let cells = memory.config().org.cells() as f64;
    let samples = effort.cells.clamp(500, 4_000);
    let leak_at = |temp: f64| -> f64 {
        let cond = Conditions::active(&tech).with_temperature(temp);
        let mut rng = pvtm_stats::rng::substream(0x7E39, (temp * 10.0) as u64);
        model.population_stats(0.0, &cond, samples, &mut rng).mean * cells
    };
    let base = leak_at(300.0);
    let rows = [300.0f64, 325.0, 350.0, 375.0]
        .iter()
        .map(|&temp_k| {
            let leak = leak_at(temp_k);
            TemperatureRow {
                temp_k,
                leakage_ratio: leak / base,
                nominal_die_region: memory.binner().classify_ideal(leak),
            }
        })
        .collect();
    TemperatureAblation { rows }
}

impl fmt::Display for TemperatureAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — temperature vs 300 K-calibrated leakage binning (nominal die)"
        )?;
        writeln!(f, "{:>7} {:>12} {:>14}", "T [K]", "leak ratio", "binned as")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>7.0} {:>11.2}x {:>14}",
                r.temp_k,
                r.leakage_ratio,
                r.nominal_die_region.to_string()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn march_coverage_ranks_algorithms() {
        let result = ablation_march(Effort::quick());
        let get = |name: &str| -> f64 {
            result
                .rows
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .coverage
        };
        // The stronger (longer) tests must not trail MATS+.
        assert!(get("March C-") >= get("MATS+") - 0.05);
        assert!(get("March SS") >= get("March C-") - 0.05);
        assert!(get("March C-") > 0.8, "March C- coverage too low");
    }

    #[test]
    fn temperature_breaks_cold_calibrated_binning() {
        let result = ablation_temperature(Effort::quick());
        assert_eq!(result.rows[0].nominal_die_region, VtRegion::Nominal);
        let hot = result.rows.last().unwrap();
        // Subthreshold leakage grows ~6x over 75 K; the *population mean*
        // grows a little less because the lognormal RDF amplification
        // shrinks as vT rises. Either way it dwarfs the ±50 mV region
        // boundary spacing (~4x).
        assert!(
            hot.leakage_ratio > 3.0,
            "leakage must grow strongly with T: {:.2}x",
            hot.leakage_ratio
        );
        assert_eq!(
            hot.nominal_die_region,
            VtRegion::LowVt,
            "a hot nominal die must be misbinned as leaky"
        );
    }

    #[test]
    fn dac_resolution_helps_savings() {
        let result = ablation_dac(Effort::quick()).unwrap();
        let first = &result.rows[0];
        let last = result.rows.last().unwrap();
        assert!(
            last.mean_saving >= first.mean_saving * 0.9,
            "finer DAC must not lose savings: {} bits {:.2}x vs {} bits {:.2}x",
            first.bits,
            first.mean_saving,
            last.bits,
            last.mean_saving
        );
        for r in &result.rows {
            assert!(r.mean_saving >= 1.0);
            assert!((0.0..=1.0).contains(&r.hold_loss));
        }
    }
}
