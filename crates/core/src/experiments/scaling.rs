//! Technology-scaling study — the paper's motivation quantified.
//!
//! §I of the paper argues that scaling into the sub-90 nm regime inflates
//! both the leakage and the parametric-failure rates, making post-silicon
//! tuning *necessary*. This experiment runs the same cell methodology on
//! the predictive 90 / 70 / 45 nm cards and shows the trend.

use rayon::prelude::*;
use serde::Serialize;
use std::fmt;

use pvtm_circuit::CircuitError;
use pvtm_device::Technology;
use pvtm_sram::{
    AnalysisConfig, CellLeakageModel, CellSizing, Conditions, FailureAnalyzer, SramCell,
};

use super::Effort;

/// One technology node.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScalingRow {
    /// Node name.
    pub node: String,
    /// Feature size \[nm\].
    pub node_nm: f64,
    /// RDF sigma of the minimum pull-down device \[V\].
    pub sigma_vt_pd: f64,
    /// Nominal-cell standby leakage \[A\].
    pub cell_leakage: f64,
    /// Overall cell failure probability at the nominal corner.
    pub p_cell_nominal: f64,
    /// Overall cell failure probability at the −100 mV corner.
    pub p_cell_low: f64,
}

/// The scaling study result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Scaling {
    /// One row per node, largest first.
    pub rows: Vec<ScalingRow>,
}

/// Runs the scaling study.
///
/// Each node gets its own calibrated timing thresholds (a design is always
/// re-margined per node); what scaling cannot fix is the RDF sigma and the
/// leakage, which is exactly the paper's point.
///
/// # Errors
///
/// Propagates DC-solver failures.
pub fn scaling(_effort: Effort) -> Result<Scaling, CircuitError> {
    let _span = pvtm_telemetry::span("scaling");
    let nodes = [
        Technology::predictive_90nm(),
        Technology::predictive_70nm(),
        Technology::predictive_45nm(),
    ];
    let ctx = pvtm_telemetry::parallel_context();
    let rows: Result<Vec<ScalingRow>, CircuitError> = nodes
        .par_iter()
        .map(|tech| {
            let _ctx = pvtm_telemetry::adopt(&ctx);
            let sizing = CellSizing::default_for(tech);
            let fa =
                FailureAnalyzer::calibrate_timing(tech, sizing, AnalysisConfig::default(), 4.7)?;
            let cond = Conditions::standby(tech, 0.5 * tech.vdd());
            let mut ev = fa.evaluator();
            let p_nom = fa.failure_probs_with(&mut ev, 0.0, &cond)?.overall();
            let p_low = fa.failure_probs_with(&mut ev, -0.10, &cond)?.overall();
            let leak = CellLeakageModel::new(tech, sizing)
                .standby(&SramCell::nominal(tech), &Conditions::active(tech))
                .total();
            Ok(ScalingRow {
                node: tech.name().to_string(),
                node_nm: tech.node_nm(),
                sigma_vt_pd: SramCell::nominal(tech).sigma_vt(pvtm_sram::Xtor::Nl),
                cell_leakage: leak,
                p_cell_nominal: p_nom,
                p_cell_low: p_low,
            })
        })
        .collect();
    Ok(Scaling { rows: rows? })
}

impl fmt::Display for Scaling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Scaling study — why sub-90nm needs post-silicon tuning")?;
        writeln!(
            f,
            "{:>16} {:>10} {:>12} {:>12} {:>12}",
            "node", "sigmaVt", "cell leak", "p_cell(0)", "p_cell(-100m)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>16} {:>8.1}mV {:>10.2}nA {:>12} {:>12}",
                r.node,
                r.sigma_vt_pd * 1e3,
                r.cell_leakage * 1e9,
                super::fmt_p(r.p_cell_nominal),
                super::fmt_p(r.p_cell_low)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_grows_as_nodes_shrink() {
        let result = scaling(Effort::quick()).unwrap();
        assert_eq!(result.rows.len(), 3);
        // Rows are ordered 90 → 70 → 45 nm.
        assert!(result.rows[0].node_nm > result.rows[2].node_nm);
        assert!(
            result.rows[2].cell_leakage > result.rows[0].cell_leakage,
            "45 nm must leak more than 90 nm"
        );
    }

    #[test]
    fn low_corner_failures_worsen_at_45nm() {
        let result = scaling(Effort::quick()).unwrap();
        let r90 = &result.rows[0];
        let r45 = &result.rows[2];
        assert!(
            r45.p_cell_low > r90.p_cell_low,
            "scaled node must fail more at the leaky corner: {:.2e} vs {:.2e}",
            r45.p_cell_low,
            r90.p_cell_low
        );
    }
}
