//! Experiments for the self-repairing memory (paper Figs. 2–5).

use rayon::prelude::*;
use serde::Serialize;
use std::fmt;

use pvtm_circuit::CircuitError;
use pvtm_sram::{leakage::LeakageStats, CellLeakageModel, Conditions, FailureAnalyzer, SramCell};
use pvtm_stats::Histogram;

use super::{baseline, fmt_p, quarantine_corner, Effort};
use crate::interp::linspace;
use crate::self_repair::{CornerResponse, Policy, SelfRepairConfig, SelfRepairingMemory};

/// Standby source bias at which the hold mechanism is evaluated throughout
/// the self-repair experiments (a low-power standby design point deep
/// enough for hold failures to be observable, as in the paper's Fig. 2a).
pub const HOLD_VSB: f64 = 0.5;

// ---------------------------------------------------------------- fig 2a

/// One corner of the Fig. 2a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig2aRow {
    /// Inter-die Vt shift \[V\].
    pub vt_inter: f64,
    /// Read failure probability.
    pub read: f64,
    /// Write failure probability.
    pub write: f64,
    /// Access failure probability.
    pub access: f64,
    /// Hold failure probability.
    pub hold: f64,
    /// Overall cell failure probability.
    pub overall: f64,
}

/// Importance-sampled Monte-Carlo cross-check of the linearized failure
/// estimate at one corner (exact circuit-solved margins, any mechanism
/// failing counts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct McCrossCheck {
    /// Corner the check ran at (the sweep's worst corner).
    pub vt_inter: f64,
    /// Overall failure probability from the linearized model.
    pub linearized: f64,
    /// Monte-Carlo estimate of the same probability.
    pub mc: f64,
    /// Standard error of the Monte-Carlo estimate.
    pub std_err: f64,
    /// Samples spent.
    pub samples: u64,
}

/// Fig. 2a: cell failure probabilities vs inter-die Vt shift.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig2a {
    /// Corner sweep.
    pub rows: Vec<Fig2aRow>,
    /// Monte-Carlo cross-check at the worst corner.
    pub mc_check: McCrossCheck,
}

/// Reproduces Fig. 2a: the V-shape of the overall cell failure probability
/// (read/hold rising toward low Vt, access/write toward high Vt).
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn fig2a(effort: Effort) -> Result<Fig2a, CircuitError> {
    let _span = pvtm_telemetry::span("fig2a");
    let (tech, sizing, config) = baseline();
    let fa = FailureAnalyzer::new(&tech, sizing, config);
    let cond = Conditions::standby(&tech, HOLD_VSB);
    let corners = linspace(-0.15, 0.15, effort.corners.max(5));
    let results: Vec<(Fig2aRow, bool)> = fa.sweep(&corners, |ev, ci, &vt_inter| {
        let outcome = match fa.failure_probs_with(ev, vt_inter, &cond) {
            Ok(p) => (
                Fig2aRow {
                    vt_inter,
                    read: p.read,
                    write: p.write,
                    access: p.access,
                    hold: p.hold,
                    overall: p.overall(),
                },
                false,
            ),
            Err(e) => {
                // An unsolvable corner is quarantined rather than
                // aborting the sweep: record it and report the
                // pessimistic bound (every mechanism failing).
                quarantine_corner(ci as u64, vt_inter, &e);
                (
                    Fig2aRow {
                        vt_inter,
                        read: 1.0,
                        write: 1.0,
                        access: 1.0,
                        hold: 1.0,
                        overall: 1.0,
                    },
                    true,
                )
            }
        };
        {
            use pvtm_telemetry::json::Value;
            pvtm_telemetry::events::emit(
                "figure.corner",
                ci as u64,
                0,
                vec![
                    ("figure", Value::Str("fig2a".into())),
                    ("corner", Value::Num(ci as f64)),
                    ("vt_inter", Value::Num(vt_inter)),
                    ("quarantined", Value::Bool(outcome.1)),
                ],
            );
        }
        outcome
    });
    let quarantined = results.iter().filter(|(_, q)| *q).count() as u64;
    let rows: Vec<Fig2aRow> = results.into_iter().map(|(r, _)| r).collect();
    pvtm_circuit::check_quarantine(quarantined, rows.len() as u64)?;
    // Cross-check the linearization against the exact-margin Monte-Carlo
    // estimator at the worst corner, leaving its chunk-level convergence
    // trace in the telemetry report under "fig2a.mc".
    let worst = rows
        .iter()
        .max_by(|a, b| {
            a.overall
                .partial_cmp(&b.overall)
                .expect("failure probabilities are finite by construction")
        })
        .expect("sweep always produces at least one row");
    let est = {
        let _trace = pvtm_telemetry::trace_scope("fig2a.mc");
        fa.failure_prob_mc(worst.vt_inter, &cond, effort.mc_samples as u64, 0x2A17)?
    };
    Ok(Fig2a {
        mc_check: McCrossCheck {
            vt_inter: worst.vt_inter,
            linearized: worst.overall,
            mc: est.value,
            std_err: est.std_err,
            samples: est.samples,
        },
        rows,
    })
}

impl fmt::Display for Fig2a {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 2a — cell failure probability vs inter-die Vt shift")?;
        writeln!(
            f,
            "{:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "Vt_inter", "read", "write", "access", "hold", "overall"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8.0}m {:>10} {:>10} {:>10} {:>10} {:>10}",
                r.vt_inter * 1e3,
                fmt_p(r.read),
                fmt_p(r.write),
                fmt_p(r.access),
                fmt_p(r.hold),
                fmt_p(r.overall)
            )?;
        }
        let c = &self.mc_check;
        writeln!(
            f,
            "MC cross-check @ {:.0} mV: linearized {} vs MC {} ± {} ({} samples)",
            c.vt_inter * 1e3,
            fmt_p(c.linearized),
            fmt_p(c.mc),
            fmt_p(c.std_err),
            c.samples
        )
    }
}

// ---------------------------------------------------------------- fig 2b

/// One body-bias point of the Fig. 2b sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig2bRow {
    /// NMOS body bias \[V\] (negative = RBB).
    pub body_bias: f64,
    /// Read failure probability.
    pub read: f64,
    /// Write failure probability.
    pub write: f64,
    /// Access failure probability.
    pub access: f64,
    /// Hold failure probability.
    pub hold: f64,
    /// Overall cell failure probability.
    pub overall: f64,
}

/// Fig. 2b: effect of body bias on each failure mechanism at the nominal
/// corner.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig2b {
    /// Body-bias sweep.
    pub rows: Vec<Fig2bRow>,
}

/// Reproduces Fig. 2b: RBB suppresses read/hold while aggravating
/// access/write; FBB does the opposite.
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn fig2b(effort: Effort) -> Result<Fig2b, CircuitError> {
    let _span = pvtm_telemetry::span("fig2b");
    let (tech, sizing, config) = baseline();
    let fa = FailureAnalyzer::new(&tech, sizing, config);
    let biases = linspace(-0.6, 0.6, effort.corners.max(5));
    let rows: Result<Vec<Fig2bRow>, CircuitError> = fa.sweep(&biases, |ev, _, &vbb| {
        let cond = Conditions::standby(&tech, HOLD_VSB).with_body_bias(vbb);
        let p = fa.failure_probs_with(ev, 0.0, &cond)?;
        Ok(Fig2bRow {
            body_bias: vbb,
            read: p.read,
            write: p.write,
            access: p.access,
            hold: p.hold,
            overall: p.overall(),
        })
    });
    Ok(Fig2b { rows: rows? })
}

impl fmt::Display for Fig2b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 2b — failure probabilities vs NMOS body bias (nominal corner)"
        )?;
        writeln!(
            f,
            "{:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "Vbb", "read", "write", "access", "hold", "overall"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6.2}V {:>10} {:>10} {:>10} {:>10} {:>10}",
                r.body_bias,
                fmt_p(r.read),
                fmt_p(r.write),
                fmt_p(r.access),
                fmt_p(r.hold),
                fmt_p(r.overall)
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- fig 2c

/// One yield point of the Fig. 2c sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig2cRow {
    /// σ of the inter-die Vt distribution \[V\].
    pub sigma_inter: f64,
    /// Parametric yield of the 64 KB memory with zero body bias.
    pub yield_64k_zbb: f64,
    /// Parametric yield of the 64 KB self-repairing memory.
    pub yield_64k_repair: f64,
    /// Parametric yield of the 256 KB memory with zero body bias.
    pub yield_256k_zbb: f64,
    /// Parametric yield of the 256 KB self-repairing memory.
    pub yield_256k_repair: f64,
}

/// Fig. 2c: parametric yield vs σ(Vt_inter) for 64 KB and 256 KB memories.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig2c {
    /// σ sweep.
    pub rows: Vec<Fig2cRow>,
    /// Yield improvement (percentage points) of self-repair at the largest
    /// σ, 64 KB / 256 KB.
    pub improvement_at_max_sigma: (f64, f64),
}

/// Reproduces Fig. 2c: the self-repairing memory recovers 8–25 % of
/// parametric yield at large variation.
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn fig2c(effort: Effort) -> Result<Fig2c, CircuitError> {
    let _span = pvtm_telemetry::span("fig2c");
    let corners = linspace(-0.30, 0.30, effort.corners.max(9));
    let mems: Vec<_> = [64usize, 256]
        .iter()
        .map(|&kib| {
            // Spare budget: 5 % of the 64 KB memory's columns, shared by
            // both capacities — at a fixed repair budget the larger memory
            // yields worse, as the paper's Fig. 2c shows.
            let spares = (pvtm_sram::ArrayOrganization::with_capacity_kib(64, 0.05)).redundant_cols;
            let mut cfg = SelfRepairConfig::default_70nm(kib, spares);
            cfg.org = pvtm_sram::ArrayOrganization::with_capacity_kib_spares(kib, spares);
            SelfRepairingMemory::new(cfg)
        })
        .collect();
    // The two memories share the cell, the analyzer and the hold bias, so
    // where they bin the grid alike they have one failure table.
    let grid = mems[0].grid(&corners);
    let small = mems[0].failure_response(&grid)?;
    let large_grid = mems[1].grid(&corners);
    let large = if large_grid == grid {
        small.clone().with_org(mems[1].config().org)
    } else {
        mems[1].failure_response(&large_grid)?
    };
    let responses = [small, large];
    let sigmas = linspace(0.025, 0.15, effort.sigmas.max(3));
    let rows: Vec<Fig2cRow> = sigmas
        .iter()
        .map(|&sigma_inter| Fig2cRow {
            sigma_inter,
            yield_64k_zbb: responses[0].parametric_yield(sigma_inter, Policy::Zbb),
            yield_64k_repair: responses[0].parametric_yield(sigma_inter, Policy::SelfRepair),
            yield_256k_zbb: responses[1].parametric_yield(sigma_inter, Policy::Zbb),
            yield_256k_repair: responses[1].parametric_yield(sigma_inter, Policy::SelfRepair),
        })
        .collect();
    let last = rows.last().expect("sweep always produces at least one row");
    let improvement_at_max_sigma = (
        100.0 * (last.yield_64k_repair - last.yield_64k_zbb),
        100.0 * (last.yield_256k_repair - last.yield_256k_zbb),
    );
    Ok(Fig2c {
        rows,
        improvement_at_max_sigma,
    })
}

impl fmt::Display for Fig2c {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 2c — parametric yield vs sigma(Vt_inter) [%]")?;
        writeln!(
            f,
            "{:>9} {:>10} {:>12} {:>10} {:>12}",
            "sigma", "64K ZBB", "64K repair", "256K ZBB", "256K repair"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8.0}m {:>10.2} {:>12.2} {:>10.2} {:>12.2}",
                r.sigma_inter * 1e3,
                100.0 * r.yield_64k_zbb,
                100.0 * r.yield_64k_repair,
                100.0 * r.yield_256k_zbb,
                100.0 * r.yield_256k_repair
            )?;
        }
        writeln!(
            f,
            "yield improvement at max sigma: 64KB {:+.1} pp, 256KB {:+.1} pp (paper: 8-25%)",
            self.improvement_at_max_sigma.0, self.improvement_at_max_sigma.1
        )
    }
}

// ----------------------------------------------------------------- fig 3

/// A named histogram series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSeries {
    /// Label (e.g. `Vt_inter = -100 mV`).
    pub label: String,
    /// The histogram.
    pub histogram: Histogram,
}

/// Fig. 3: cell-level leakage distributions overlap across corners while
/// 1 KB-array distributions separate (central limit theorem).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig3 {
    /// Per-cell leakage histograms at each corner.
    pub cell: Vec<HistogramSeries>,
    /// 1 KB-array leakage histograms at each corner.
    pub array: Vec<HistogramSeries>,
    /// Pairwise overlap of adjacent-corner cell histograms.
    pub cell_overlap: f64,
    /// Pairwise overlap of adjacent-corner array histograms.
    pub array_overlap: f64,
}

/// Reproduces Fig. 3: why the monitor senses the whole array.
pub fn fig3(effort: Effort) -> Fig3 {
    let _span = pvtm_telemetry::span("fig3");
    let (tech, sizing, _) = baseline();
    let model = CellLeakageModel::new(&tech, sizing);
    let cond = Conditions::active(&tech);
    let corners = [-0.10, 0.0, 0.10];
    let labels = ["Vt_inter = -100 mV", "Vt_inter = 0", "Vt_inter = +100 mV"];
    let array_cells = 1024 * 8; // 1 KB

    // Per-cell samples across all corners share one histogram range.
    let cell_samples: Vec<Vec<f64>> = corners
        .par_iter()
        .enumerate()
        .map(|(i, &c)| {
            let mut rng = pvtm_stats::rng::substream(0xF163, i as u64);
            let mut cells = vec![0.0; effort.cells];
            model.at_corner(c, &cond).fill(&mut cells, &mut rng);
            cells
        })
        .collect();
    let array_samples: Vec<Vec<f64>> = corners
        .par_iter()
        .enumerate()
        .map(|(i, &c)| {
            let corner = model.at_corner(c, &cond);
            (0..effort.arrays as u64)
                .into_par_iter()
                .map(|a| {
                    let mut rng = pvtm_stats::rng::substream(0xF1630, i as u64 * 1_000_003 + a);
                    // Sum of `array_cells` cell leakages = one array draw.
                    // Subsample cells and scale: the CLT mean/σ of the sum
                    // is preserved by stratified subsampling at this size.
                    let n_sub = 2048.min(array_cells);
                    let scale = array_cells as f64 / n_sub as f64;
                    let mut cells = vec![0.0; n_sub];
                    corner.fill(&mut cells, &mut rng);
                    cells.iter().sum::<f64>() * scale
                })
                .collect()
        })
        .collect();

    let make = |samples: &[Vec<f64>]| -> (Vec<HistogramSeries>, f64) {
        let all: Vec<f64> = samples.iter().flatten().copied().collect();
        let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max) * 1.0001;
        let series: Vec<HistogramSeries> = samples
            .iter()
            .zip(labels)
            .map(|(s, label)| {
                let mut h = Histogram::new(lo, hi, 60);
                for &x in s {
                    h.add(x);
                }
                HistogramSeries {
                    label: label.to_string(),
                    histogram: h,
                }
            })
            .collect();
        let overlap = series[0]
            .histogram
            .overlap(&series[1].histogram)
            .max(series[1].histogram.overlap(&series[2].histogram));
        (series, overlap)
    };
    let (cell, cell_overlap) = make(&cell_samples);
    let (array, array_overlap) = make(&array_samples);
    Fig3 {
        cell,
        array,
        cell_overlap,
        array_overlap,
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 3 — leakage distributions across inter-die corners")?;
        writeln!(
            f,
            "cell-level adjacent-corner overlap:  {:.3} (overlapping as in Fig 3a)",
            self.cell_overlap
        )?;
        writeln!(
            f,
            "array-level adjacent-corner overlap: {:.4} (separated as in Fig 3b)",
            self.array_overlap
        )?;
        for s in &self.array {
            let h = &s.histogram;
            let mean_bin = (0..h.nbins())
                .max_by(|&a, &b| h.count(a).cmp(&h.count(b)))
                .unwrap_or(0);
            writeln!(
                f,
                "  array {}: mode near {:.2} uA",
                s.label,
                h.bin_center(mean_bin) * 1e6
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- fig 4b

/// One corner of the Fig. 4b comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig4bRow {
    /// Inter-die corner \[V\].
    pub vt_inter: f64,
    /// Expected failing cells, no body bias.
    pub failures_zbb: f64,
    /// Expected failing cells with self-repair.
    pub failures_repair: f64,
    /// Expected faulty columns, no body bias.
    pub faulty_cols_zbb: f64,
    /// Expected faulty columns with self-repair.
    pub faulty_cols_repair: f64,
}

/// Fig. 4b: failure counts in a 256 KB array across corners.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig4b {
    /// Corner sweep.
    pub rows: Vec<Fig4bRow>,
}

/// Reproduces Fig. 4b: the self-repairing memory slashes the number of
/// failures at shifted corners.
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn fig4b(effort: Effort) -> Result<Fig4b, CircuitError> {
    let _span = pvtm_telemetry::span("fig4b");
    let memory = SelfRepairingMemory::new({
        let mut cfg = SelfRepairConfig::default_70nm(256, 8);
        cfg.org = pvtm_sram::ArrayOrganization::with_capacity_kib(256, 0.05);
        cfg
    });
    let grid = linspace(-0.25, 0.25, effort.corners.max(7));
    let resp = memory.failure_response(&memory.grid(&grid))?;
    let cells = memory.config().org.cells() as f64;
    let rows = grid
        .iter()
        .map(|&vt_inter| Fig4bRow {
            vt_inter,
            failures_zbb: cells * resp.p_cell(vt_inter, Policy::Zbb),
            failures_repair: cells * resp.p_cell(vt_inter, Policy::SelfRepair),
            faulty_cols_zbb: resp.expected_faulty_columns(vt_inter, Policy::Zbb),
            faulty_cols_repair: resp.expected_faulty_columns(vt_inter, Policy::SelfRepair),
        })
        .collect();
    Ok(Fig4b { rows })
}

impl fmt::Display for Fig4b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 4b — expected failures in a 256 KB array")?;
        writeln!(
            f,
            "{:>9} {:>14} {:>14} {:>12} {:>12}",
            "Vt_inter", "cells ZBB", "cells repair", "cols ZBB", "cols repair"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8.0}m {:>14.2} {:>14.2} {:>12.3} {:>12.3}",
                r.vt_inter * 1e3,
                r.failures_zbb,
                r.failures_repair,
                r.faulty_cols_zbb,
                r.faulty_cols_repair
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- fig 5a

/// One body-bias point of the leakage decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig5aRow {
    /// NMOS body bias \[V\].
    pub body_bias: f64,
    /// Subthreshold component, normalized to the ZBB total.
    pub subthreshold: f64,
    /// Gate component, normalized.
    pub gate: f64,
    /// Junction BTBT component, normalized.
    pub junction: f64,
    /// Body-diode component, normalized.
    pub diode: f64,
    /// Total, normalized.
    pub total: f64,
}

/// Fig. 5a: cell leakage components vs body bias.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5a {
    /// Body-bias sweep.
    pub rows: Vec<Fig5aRow>,
    /// Body bias minimizing the total \[V\].
    pub optimum_bias: f64,
}

/// Reproduces Fig. 5a: subthreshold falls with RBB while junction BTBT
/// rises (and the diode explodes under deep FBB), bounding the usable
/// body-bias window.
pub fn fig5a(effort: Effort) -> Fig5a {
    let _span = pvtm_telemetry::span("fig5a");
    let (tech, sizing, _) = baseline();
    let model = CellLeakageModel::new(&tech, sizing);
    let cell = SramCell::nominal(&tech);
    let biases = linspace(-0.6, 0.6, (2 * effort.corners).max(13));
    let norm = model.standby(&cell, &Conditions::active(&tech)).total();
    let rows: Vec<Fig5aRow> = biases
        .iter()
        .map(|&vbb| {
            let l = model.standby(&cell, &Conditions::active(&tech).with_body_bias(vbb));
            Fig5aRow {
                body_bias: vbb,
                subthreshold: l.subthreshold / norm,
                gate: l.gate / norm,
                junction: l.junction / norm,
                diode: l.diode / norm,
                total: l.total() / norm,
            }
        })
        .collect();
    let optimum_bias = rows
        .iter()
        .min_by(|a, b| {
            a.total
                .partial_cmp(&b.total)
                .expect("yield totals are finite by construction")
        })
        .expect("sweep always produces at least one row")
        .body_bias;
    Fig5a { rows, optimum_bias }
}

impl fmt::Display for Fig5a {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 5a — normalized cell leakage components vs body bias"
        )?;
        writeln!(
            f,
            "{:>7} {:>8} {:>8} {:>9} {:>9} {:>8}",
            "Vbb", "subthr", "gate", "junction", "diode", "total"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6.2}V {:>8.3} {:>8.3} {:>9.3} {:>9.3} {:>8.3}",
                r.body_bias, r.subthreshold, r.gate, r.junction, r.diode, r.total
            )?;
        }
        writeln!(
            f,
            "total-leakage optimum at Vbb = {:.2} V (interior, as in Fig 5a)",
            self.optimum_bias
        )
    }
}

// ---------------------------------------------------------------- fig 5b

/// Fig. 5b: the inter-die memory-leakage spread with and without
/// self-repair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5b {
    /// Histogram of array leakage across dies, all dies at ZBB.
    pub zbb: Histogram,
    /// Histogram with the self-repairing body bias applied.
    pub repaired: Histogram,
    /// Ratio of 95th-percentile to 5th-percentile array leakage, ZBB.
    pub spread_zbb: f64,
    /// Same ratio with self-repair.
    pub spread_repaired: f64,
}

/// The 64 KB self-repairing memory of Figs. 5b and 5c, and its cell
/// leakage over the ±300 mV inter-die corner grid.
fn leakage_64kib(effort: Effort) -> CornerResponse<LeakageStats> {
    let memory = SelfRepairingMemory::new({
        let mut cfg = SelfRepairConfig::default_70nm(64, 8);
        cfg.org = pvtm_sram::ArrayOrganization::with_capacity_kib(64, 0.05);
        cfg
    });
    memory.leakage_response(&memory.grid(&linspace(-0.30, 0.30, effort.corners.max(9))))
}

/// Reproduces Fig. 5b: RBB on leaky dies and FBB on slow dies compress the
/// leakage spread. It samples leakage, solves nothing and never fails.
pub fn fig5b(effort: Effort) -> Result<Fig5b, CircuitError> {
    let _span = pvtm_telemetry::span("fig5b");
    let resp = leakage_64kib(effort);
    let sigma = 0.08;
    let mut rng = pvtm_stats::rng::substream(0xF165B, 0);
    let dies = (effort.dies * 10).max(500);
    let mut zbb_samples = Vec::with_capacity(dies);
    let mut rep_samples = Vec::with_capacity(dies);
    let zbb_leak = resp.array_leak_curve(Policy::Zbb);
    let rep_leak = resp.array_leak_curve(Policy::SelfRepair);
    use rand_distr::Distribution;
    for _ in 0..dies {
        let g: f64 = rand_distr::StandardNormal.sample(&mut rng);
        let corner = sigma * g;
        zbb_samples.push(zbb_leak(corner));
        rep_samples.push(rep_leak(corner));
    }
    let hi = zbb_samples
        .iter()
        .chain(&rep_samples)
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        * 1.0001;
    let mut zbb = Histogram::new(0.0, hi, 60);
    let mut repaired = Histogram::new(0.0, hi, 60);
    for (&a, &b) in zbb_samples.iter().zip(&rep_samples) {
        zbb.add(a);
        repaired.add(b);
    }
    let q = pvtm_stats::histogram::quantile;
    Ok(Fig5b {
        spread_zbb: q(&zbb_samples, 0.95) / q(&zbb_samples, 0.05),
        spread_repaired: q(&rep_samples, 0.95) / q(&rep_samples, 0.05),
        zbb,
        repaired,
    })
}

impl fmt::Display for Fig5b {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig 5b — inter-die array-leakage spread (64 KB)")?;
        writeln!(
            f,
            "p95/p5 leakage ratio at ZBB:        {:.2}",
            self.spread_zbb
        )?;
        writeln!(
            f,
            "p95/p5 leakage ratio self-repaired: {:.2} (compressed)",
            self.spread_repaired
        )
    }
}

// ---------------------------------------------------------------- fig 5c

/// One σ point of the leakage-yield sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fig5cRow {
    /// σ of the inter-die Vt distribution \[V\].
    pub sigma_inter: f64,
    /// `L_Yield` with zero body bias.
    pub l_yield_zbb: f64,
    /// `L_Yield` with self-repair.
    pub l_yield_repair: f64,
}

/// Fig. 5c: leakage yield vs σ(Vt_inter) for a 64 KB array.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig5c {
    /// σ sweep.
    pub rows: Vec<Fig5cRow>,
    /// The leakage bound used \[A\].
    pub l_max: f64,
}

/// Reproduces Fig. 5c (paper Eqs. (3)–(4)). It samples leakage, solves
/// nothing and never fails.
pub fn fig5c(effort: Effort) -> Result<Fig5c, CircuitError> {
    let _span = pvtm_telemetry::span("fig5c");
    let resp = leakage_64kib(effort);
    let l_max = 2.5 * resp.array_leak_mean(0.0, Policy::Zbb);
    let rows = linspace(0.025, 0.15, effort.sigmas.max(3))
        .iter()
        .map(|&sigma_inter| Fig5cRow {
            sigma_inter,
            l_yield_zbb: resp.leakage_yield(sigma_inter, l_max, Policy::Zbb),
            l_yield_repair: resp.leakage_yield(sigma_inter, l_max, Policy::SelfRepair),
        })
        .collect();
    Ok(Fig5c { rows, l_max })
}

impl fmt::Display for Fig5c {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 5c — leakage yield vs sigma(Vt_inter), 64 KB, L_MAX = {:.2} uA",
            self.l_max * 1e6
        )?;
        writeln!(f, "{:>9} {:>10} {:>12}", "sigma", "ZBB", "self-repair")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>8.0}m {:>9.2}% {:>11.2}%",
                r.sigma_inter * 1e3,
                100.0 * r.l_yield_zbb,
                100.0 * r.l_yield_repair
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_has_the_v_shape() {
        let result = fig2a(Effort::quick()).unwrap();
        let overall: Vec<f64> = result.rows.iter().map(|r| r.overall).collect();
        let min_idx = overall
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < overall.len() - 1,
            "overall failure must be minimal at an interior corner: {overall:?}"
        );
        // Read dominates the low end, access/write the high end.
        let first = &result.rows[0];
        let last = result.rows.last().unwrap();
        assert!(first.read > last.read);
        assert!(last.access > first.access);
        assert!(last.write > first.write);
        // The Monte-Carlo cross-check ran at the worst corner and is a
        // sane probability.
        let c = &result.mc_check;
        assert_eq!(c.samples, Effort::quick().mc_samples as u64);
        assert!(c.mc.is_finite() && (0.0..=1.0).contains(&c.mc));
        assert!(c.linearized > 0.0);
    }

    #[test]
    fn fig2b_directions() {
        let result = fig2b(Effort::quick()).unwrap();
        let rbb = &result.rows[0];
        let zbb = &result.rows[result.rows.len() / 2];
        let fbb = result.rows.last().unwrap();
        assert!(rbb.read < zbb.read && zbb.read < fbb.read, "read vs bias");
        assert!(
            rbb.access > zbb.access && zbb.access > fbb.access,
            "access vs bias"
        );
        assert!(
            rbb.write > zbb.write && zbb.write > fbb.write,
            "write vs bias"
        );
    }

    #[test]
    fn fig5a_shape() {
        let result = fig5a(Effort::quick());
        // Interior total minimum; junction monotone falling with Vbb.
        assert!(result.optimum_bias > -0.6 && result.optimum_bias < 0.3);
        let first = &result.rows[0];
        let last = result.rows.last().unwrap();
        assert!(first.junction > last.junction);
        assert!(first.subthreshold < last.subthreshold);
        assert!(last.diode > first.diode);
    }

    #[test]
    fn fig3_array_separates_cells_overlap() {
        let result = fig3(Effort::quick());
        assert!(
            result.cell_overlap > 0.2,
            "cell histograms must overlap: {}",
            result.cell_overlap
        );
        assert!(
            result.array_overlap < 0.05,
            "array histograms must separate: {}",
            result.array_overlap
        );
    }
}
