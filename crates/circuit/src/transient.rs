//! Transient analysis via backward Euler.
//!
//! Fixed-step implicit integration: unconditionally stable, first-order —
//! entirely adequate for the bit-line discharge and cell-flip waveforms the
//! SRAM analyses need (smooth exponential-ish trajectories, no oscillators).

use crate::dc::{self, Companion, DcWorkspace, Pins, System};
use crate::netlist::{CircuitError, Netlist, NodeId};

/// Options for a transient run.
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Fixed time step \[s\].
    pub dt: f64,
    /// Stop time \[s\].
    pub t_stop: f64,
    /// Initial solver state; when empty, a cold DC solve
    /// ([`Netlist::solve_dc`]) provides it.
    pub initial_state: Vec<f64>,
}

impl TransientOptions {
    /// Creates options for a run of `t_stop` seconds at step `dt`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < dt <= t_stop`.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        assert!(
            dt > 0.0 && dt <= t_stop && dt.is_finite() && t_stop.is_finite(),
            "invalid transient window dt={dt}, t_stop={t_stop}"
        );
        Self {
            dt,
            t_stop,
            initial_state: Vec::new(),
        }
    }

    /// Starts the run from an explicit solver state (e.g. a pre-charged
    /// bit-line) instead of the DC operating point.
    pub fn with_initial_state(mut self, state: Vec<f64>) -> Self {
        self.initial_state = state;
        self
    }
}

/// Recorded waveforms of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    /// One trace per node, indexed like the netlist's nodes (ground at 0).
    traces: Vec<Vec<f64>>,
}

impl TransientResult {
    /// Time points \[s\].
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Waveform of a node \[V\].
    pub fn trace(&self, node: NodeId) -> &[f64] {
        &self.traces[node.index()]
    }

    /// Final value of a node \[V\].
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        *self.traces[node.index()]
            .last()
            .expect("transient produced no samples")
    }

    /// First time the node crosses `level` in the given direction, found by
    /// linear interpolation between samples. `falling = true` looks for a
    /// downward crossing.
    pub fn crossing_time(&self, node: NodeId, level: f64, falling: bool) -> Option<f64> {
        let tr = self.trace(node);
        for i in 1..tr.len() {
            let (a, b) = (tr[i - 1], tr[i]);
            let crossed = if falling {
                a > level && b <= level
            } else {
                a < level && b >= level
            };
            if crossed {
                let frac = (level - a) / (b - a);
                return Some(self.times[i - 1] + frac * (self.times[i] - self.times[i - 1]));
            }
        }
        None
    }
}

/// Runs a backward-Euler transient analysis.
///
/// # Errors
///
/// Fails if the initial DC solve fails or any time step's Newton iteration
/// does not converge.
pub fn solve(netlist: &Netlist, opts: &TransientOptions) -> Result<TransientResult, CircuitError> {
    let pins = Pins::of(netlist);
    let sys = System::new(netlist, &pins);
    if sys.num_unknowns == 0 {
        return Err(CircuitError::EmptyCircuit);
    }

    let mut state = if opts.initial_state.is_empty() {
        netlist.solve_dc()?.state
    } else {
        assert_eq!(
            opts.initial_state.len(),
            sys.num_unknowns,
            "initial state length mismatch"
        );
        opts.initial_state.clone()
    };

    let steps = (opts.t_stop / opts.dt).round() as usize;
    let num_nodes = netlist.num_nodes();
    let mut times = Vec::with_capacity(steps + 1);
    let mut traces = vec![Vec::with_capacity(steps + 1); num_nodes];

    let record = |t: f64, state: &[f64], times: &mut Vec<f64>, traces: &mut Vec<Vec<f64>>| {
        times.push(t);
        traces[0].push(0.0);
        for (i, tr) in traces.iter_mut().enumerate().skip(1) {
            tr.push(state[i - 1]);
        }
    };

    record(0.0, &state, &mut times, &mut traces);

    let mut prev = state.clone();
    let mut ws = DcWorkspace::default();
    let stepped = (1..=steps).try_for_each(|k| {
        let companion = Companion {
            dt: opts.dt,
            prev: &prev,
        };
        sys.newton(
            &mut state,
            dc::GMIN_FINAL,
            1.0,
            Some(&companion),
            &dc::NORMAL,
            &mut ws,
        )?;
        record(k as f64 * opts.dt, &state, &mut times, &mut traces);
        prev.copy_from_slice(&state);
        Ok(())
    });
    // The steps' Newton work, once per run (failed or not); a time step
    // is not a DC solve, so `solves` stays 0.
    pvtm_telemetry::record_solver(&ws.stats);
    stepped?;

    Ok(TransientResult { times, traces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    /// RC discharge: v(t) = V0·e^{-t/RC}.
    #[test]
    fn rc_discharge_matches_analytic() {
        let r = 1e3;
        let c = 1e-9;
        let mut ckt = Netlist::new();
        let a = ckt.node("a");
        ckt.resistor("R", a, Netlist::GROUND, r);
        ckt.capacitor("C", a, Netlist::GROUND, c);
        // Start charged to 1 V with no source holding it.
        let opts = TransientOptions::new(10e-9, 2e-6).with_initial_state(vec![1.0]);
        let res = solve(&ckt, &opts).unwrap();
        let tau = r * c;
        for (&t, &v) in res.times().iter().zip(res.trace(a)) {
            let expected = (-t / tau).exp();
            // Backward Euler is first order: a few percent at dt = tau/100.
            assert!((v - expected).abs() < 0.02, "t={t:e}: v={v} vs {expected}");
        }
    }

    #[test]
    fn rc_charge_through_source() {
        let mut ckt = Netlist::new();
        let src = ckt.node("src");
        let out = ckt.node("out");
        ckt.vsource("V1", src, Netlist::GROUND, 1.0);
        ckt.resistor("R", src, out, 1e3);
        ckt.capacitor("C", out, Netlist::GROUND, 1e-9);
        // Start from everything discharged (cap at 0, source on).
        let opts = TransientOptions::new(5e-9, 5e-6).with_initial_state(vec![1.0, 0.0, 0.0]);
        let res = solve(&ckt, &opts).unwrap();
        // After 5 tau the output has settled at the source voltage.
        assert!((res.final_voltage(out) - 1.0).abs() < 0.01);
        // 63% point reached near t = tau.
        let t63 = res.crossing_time(out, 0.632, false).unwrap();
        assert!((t63 - 1e-6).abs() < 0.1e-6, "t63 = {t63:e}");
    }

    #[test]
    fn crossing_time_directionality() {
        let mut ckt = Netlist::new();
        let a = ckt.node("a");
        ckt.resistor("R", a, Netlist::GROUND, 1e3);
        ckt.capacitor("C", a, Netlist::GROUND, 1e-9);
        let opts = TransientOptions::new(10e-9, 3e-6).with_initial_state(vec![1.0]);
        let res = solve(&ckt, &opts).unwrap();
        // The waveform only falls: no rising crossing of 0.5 exists.
        assert!(res.crossing_time(a, 0.5, true).is_some());
        assert!(res.crossing_time(a, 0.5, false).is_none());
    }

    #[test]
    fn starts_from_dc_when_no_initial_state() {
        let mut ckt = Netlist::new();
        let src = ckt.node("src");
        let out = ckt.node("out");
        ckt.vsource("V1", src, Netlist::GROUND, 1.0);
        ckt.resistor("R", src, out, 1e3);
        ckt.capacitor("C", out, Netlist::GROUND, 1e-12);
        let res = solve(&ckt, &TransientOptions::new(1e-9, 50e-9)).unwrap();
        // Already at equilibrium: flat trace.
        for &v in res.trace(out) {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "invalid transient window")]
    fn rejects_bad_window() {
        let _ = TransientOptions::new(1e-6, 1e-9);
    }
}
