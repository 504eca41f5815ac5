//! Cell-level parametric-failure metrics: their configuration, their
//! results, and the closed-form steps between a DC solution and a margin.
//!
//! The static metrics of the paper's §II (after its refs \[3\], \[4\]):
//!
//! - **read margin** `V_TRIPRD − V_READ`: the read-disturb voltage at the
//!   node storing 0 versus the trip point of the opposite inverter under
//!   read load — negative margin means the cell flips when read;
//! - **write margin** `ln(T_WL / t_write)`: the word-line pulse against the
//!   time the access transistor needs to pull the 1 node down to the
//!   opposite trip point — negative means the write does not complete;
//! - **access margin** `ln(T_MAX / t_access)`: log ratio of the allowed to
//!   the achieved bit-line discharge time — negative means a sensing
//!   failure;
//! - **hold margin** `ln(allowed / droop)`: sag of the 1 node in standby
//!   (raised source bias) versus the data-retention trip point — negative
//!   means the stored bit dies in standby.
//!
//! The circuit-solved quantities (trip points, the read divider, the hold
//! state) come from [`CellEvaluator`](crate::evaluator::CellEvaluator).

use crate::cell::{Conditions, SramCell, Xtor};

/// Bit-line capacitance \[F\].
pub(crate) const CBL: f64 = 60e-15;
/// Bit-line differential required by the sense amplifier \[V\].
pub(crate) const DV_SENSE: f64 = 0.10;
/// Storage-node capacitance \[F\] (sets the write flip time).
const C_NODE: f64 = 1.2e-15;
/// Output crossing level for trip-point extraction, as a fraction of the
/// rail span (0.5 = midpoint).
pub(crate) const TRIP_LEVEL_FRAC: f64 = 0.5;
/// Bisection iterations that define a trip point (each halves the
/// interval): the trip is the midpoint of the bisection's final cell,
/// which `CellEvaluator` locates with a bordered solve and confirms with
/// two solves before it falls back to bisecting.
pub(crate) const BISECTION_ITERS: u32 = 24;

/// Configuration of the failure metrics: the two timing limits, which
/// [`FailureAnalyzer::calibrate_timing`](crate::FailureAnalyzer::calibrate_timing)
/// sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Maximum allowed access (bit-line discharge) time \[s\].
    pub t_max: f64,
    /// Word-line pulse width available to complete a write \[s\].
    pub t_wl_max: f64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            // Timing thresholds match `FailureAnalyzer::calibrate_timing`
            // at the default 70 nm sizing with a 4.7σ nominal guard band,
            // so the default configuration is a balanced design out of the
            // box (the paper's "equal failure probabilities at ZBB").
            t_max: 89.3e-12,
            t_wl_max: 12.6e-12,
        }
    }
}

impl AnalysisConfig {
    /// Panics unless the access-time limit is positive.
    pub(crate) fn check(&self) {
        assert!(self.t_max > 0.0);
    }

    /// Write (flip) time \[s\] for the flip threshold `trip`: the time for
    /// `AXL` (bit line at 0) to pull the 1 node from VDD down to `trip`,
    /// fighting `PL` (held fully on — the far node is still low), by
    /// integrating `C_node·dV / I_net(V)` over the trajectory.
    ///
    /// Returns infinity when the static pull never reaches the threshold
    /// (net current reverses) — a static write failure.
    pub fn write_time(&self, cell: &SramCell, cond: &Conditions, trip: f64) -> f64 {
        if trip >= cond.vdd {
            return 0.0;
        }
        let axl = cell.device(Xtor::Axl);
        let pl = cell.device(Xtor::Pl);
        const STEPS: usize = 12;
        let mut t = 0.0;
        for k in 0..STEPS {
            let v0 = cond.vdd - (cond.vdd - trip) * k as f64 / STEPS as f64;
            let v1 = cond.vdd - (cond.vdd - trip) * (k + 1) as f64 / STEPS as f64;
            let vm = 0.5 * (v0 + v1);
            // AXL discharges the node toward BL = 0.
            let i_ax = axl.ids(
                pvtm_device::Bias::new(cond.vdd, vm, 0.0, cond.body_bias),
                cond.temp_k,
            );
            // PL (gate still at the low far node) feeds the node; its drain
            // current is negative by convention, so the delivered current
            // is its negation.
            let i_pl = -pl.ids(
                pvtm_device::Bias::new(0.0, vm, cond.vdd, cond.vdd),
                cond.temp_k,
            );
            let i_net = i_ax - i_pl;
            if i_net <= 0.0 {
                return f64::INFINITY;
            }
            t += C_NODE * (v0 - v1) / i_net;
        }
        t
    }

    /// Write-ability margin `ln(T_WL / t_write)` (dimensionless): negative
    /// when the cell cannot flip within the word-line pulse. This is the
    /// paper's write-failure criterion — a *timing* failure, which is why
    /// reverse body bias (weaker access NMOS) degrades it while forward
    /// body bias helps. A static write failure (infinite time) maps to a
    /// deeply negative but finite margin so the linearized model stays
    /// usable.
    pub fn write_margin(&self, t_write: f64) -> f64 {
        if !t_write.is_finite() {
            return -10.0;
        }
        (self.t_wl_max / t_write.max(1e-15)).ln()
    }

    /// Access (bit-line discharge) time \[s\] for a read current:
    /// `C_BL · ΔV_sense / I_read`.
    pub fn access_time(&self, i_read: f64) -> f64 {
        CBL * DV_SENSE / i_read.max(1e-12)
    }

    /// Access margin `ln(T_MAX / t_access)` (dimensionless) for a read
    /// current.
    pub fn access_margin(&self, i_read: f64) -> f64 {
        (self.t_max / self.access_time(i_read)).ln()
    }
}

/// Hold-analysis raw quantities (see
/// [`CellEvaluator::hold_metrics`](crate::evaluator::CellEvaluator::hold_metrics)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoldMetrics {
    /// Actual droop of the 1 node below VDD \[V\].
    pub droop: f64,
    /// Allowed droop before the retention trip point is reached \[V\].
    pub allowed: f64,
}

/// The four failure-metric margins; positive is healthy, negative failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Margins {
    /// Read-stability margin \[V\].
    pub read: f64,
    /// Write-ability margin `ln(T_WL / t_write)` (dimensionless).
    pub write: f64,
    /// Access margin `ln(T_MAX / t_access)` (dimensionless).
    pub access: f64,
    /// Hold (data-retention) margin `ln(allowed / droop)` (dimensionless).
    pub hold: f64,
}

impl Margins {
    /// True when any mechanism fails.
    pub fn any_failure(&self) -> bool {
        self.read < 0.0 || self.write < 0.0 || self.access < 0.0 || self.hold < 0.0
    }

    /// The margins as an array ordered `[read, write, access, hold]`.
    pub fn as_array(&self) -> [f64; 4] {
        [self.read, self.write, self.access, self.hold]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_as_array_order() {
        let m = Margins {
            read: 1.0,
            write: 2.0,
            access: 3.0,
            hold: 4.0,
        };
        assert_eq!(m.as_array(), [1.0, 2.0, 3.0, 4.0]);
        assert!(!m.any_failure());
        let bad = Margins { hold: -0.1, ..m };
        assert!(bad.any_failure());
    }
}
