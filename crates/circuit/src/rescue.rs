//! Last-resort solver rescue ladder.
//!
//! The standard cold strategy in [`crate::dc`] — Gmin continuation, a
//! heavily damped retry, then a four-step source ramp — converges
//! everything the reproduced figures normally throw at it. But Monte-Carlo
//! tails sample cells near the edge of bistability, where the retention
//! point is a near-fold of the DC equations and all three strategies can
//! fail on the same sample. Before such a sample is declared unsolvable
//! (and quarantined by the estimators), the solver escalates through a
//! fixed three-rung ladder:
//!
//! 1. **Tighter Gmin stepping** — the continuation re-runs with factor-10
//!    Gmin decades instead of factor-100, halving the parameter jump each
//!    Newton stage has to absorb.
//! 2. **Wide source ramp** — eight source-scale steps (12.5 % → 100 %)
//!    instead of four, each a full tight-Gmin continuation under the
//!    damped options.
//! 3. **Deep-damped Newton** — the step clamp is cut to 10 mV with an
//!    8× iteration allowance, again under tight Gmin stepping: slow, but
//!    monotone enough to creep along a fold.
//!
//! Every entry, rung and success is counted in
//! [`SolverStats`](crate::SolverStats) (`rescue_attempts`,
//! `rescue_rungs`, `rescue_hits`), so telemetry sidecars and `pvtm-trace`
//! budgets see rescue work like any other solver work. The ladder is also
//! a fault-injection target: each rung checks
//! [`pvtm_telemetry::fault::trip`] so the deterministic harness can force
//! failure at any chosen depth.

use crate::dc::{gmin_continuation, init_state, injected_failure, DcOptions, DcWorkspace, System};
use crate::netlist::CircuitError;
use pvtm_telemetry::fault;
use pvtm_telemetry::json::Value;

/// Escalates through the rescue ladder on a state that the standard cold
/// strategies already failed. Counts one attempt, one rung per ladder
/// stage entered, and one hit on success.
///
/// # Errors
///
/// The last rung's [`CircuitError`] when every rung fails — the sample is
/// then genuinely unsolvable and the caller should quarantine it.
pub(crate) fn rescue(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    ws.stats.rescue_attempts += 1;
    let rungs_before = ws.stats.rescue_rungs;
    let result = ladder(sys, x, opts, ws);
    if result.is_ok() {
        ws.stats.rescue_hits += 1;
    }
    // Journal the escalation. The armed fault/quarantine stream is the
    // sample's replay key; outside an estimator (no stream armed) a
    // sentinel keeps the event keyed deterministically.
    let stream = fault::current_stream();
    pvtm_telemetry::events::emit(
        "solver.rescue",
        stream.unwrap_or(u64::MAX),
        ws.stats.rescue_rungs - rungs_before,
        vec![
            (
                "stream",
                match stream {
                    Some(s) => Value::Num(s as f64),
                    None => Value::Null,
                },
            ),
            (
                "rungs",
                Value::Num((ws.stats.rescue_rungs - rungs_before) as f64),
            ),
            ("hit", Value::Bool(result.is_ok())),
        ],
    );
    result
}

/// The three rungs themselves; counts rungs but leaves attempt/hit
/// accounting to [`rescue`].
fn ladder(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    // Rung 1: tighter Gmin stepping at the caller's damping.
    ws.stats.rescue_rungs += 1;
    init_state(x, opts);
    if !fault::trip() && fine_gmin(sys, x, opts, 1.0, ws).is_ok() {
        return Ok(());
    }

    // Rung 2: wide source ramp under heavy damping.
    ws.stats.rescue_rungs += 1;
    let damped = DcOptions {
        max_step: 0.05,
        max_iterations: 400,
        ..opts.clone()
    };
    init_state(x, opts);
    if !fault::trip() && wide_ramp(sys, x, &damped, ws).is_ok() {
        return Ok(());
    }

    // Rung 3: deep-damped Newton with a reduced step clamp.
    ws.stats.rescue_rungs += 1;
    let deep = DcOptions {
        max_step: 0.01,
        max_iterations: 1_000,
        ..opts.clone()
    };
    init_state(x, opts);
    if fault::trip() {
        Err(injected_failure())
    } else {
        fine_gmin(sys, x, &deep, 1.0, ws)
    }
}

/// Gmin continuation with factor-10 steps (the standard ladder uses
/// factor-100), so each stage's warm start is twice as close.
fn fine_gmin(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    vsource_scale: f64,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    let mut gmin = opts.gmin_start;
    loop {
        ws.stats.gmin_steps += 1;
        sys.newton(x, gmin, vsource_scale, None, opts, ws)?;
        if gmin <= opts.gmin_final {
            return Ok(());
        }
        gmin = (gmin * 1e-1).max(opts.gmin_final);
    }
}

/// Source stepping over eight scales (the standard ramp uses four), each
/// a full coarse Gmin continuation — the first step starts at only 12.5 %
/// of the source values, where almost any circuit is solvable.
fn wide_ramp(
    sys: &System<'_>,
    x: &mut [f64],
    opts: &DcOptions,
    ws: &mut DcWorkspace,
) -> Result<(), CircuitError> {
    for i in 1..=8u32 {
        let alpha = f64::from(i) / 8.0;
        ws.stats.ramp_steps += 1;
        gmin_continuation(sys, x, opts, alpha, ws)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::dc::DcOptions;
    use crate::netlist::{Netlist, NodeId};
    use crate::template::CircuitTemplate;
    use crate::FAULT_LOCK;
    use pvtm_device::{Mosfet, Technology};

    fn inverter() -> (CircuitTemplate, NodeId) {
        let tech = Technology::predictive_70nm();
        let mut ckt = Netlist::new();
        let vdd = ckt.node("vdd");
        let input = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Netlist::GROUND, 1.0);
        ckt.vsource("VIN", input, Netlist::GROUND, 0.0);
        ckt.mosfet(
            "MP",
            out,
            input,
            vdd,
            vdd,
            Mosfet::pmos(&tech, 200e-9, tech.lmin()),
        );
        ckt.mosfet(
            "MN",
            out,
            input,
            Netlist::GROUND,
            Netlist::GROUND,
            Mosfet::nmos(&tech, 140e-9, tech.lmin()),
        );
        let tpl = CircuitTemplate::compile(ckt, DcOptions::default()).expect("non-empty");
        (tpl, out)
    }

    #[test]
    fn injected_standard_ladder_failure_is_rescued() {
        let _l = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Depth 3 kills the three standard cold strategies (a template's
        // first solve has no warm slot); the first rescue rung then runs
        // for real and must converge this ordinary circuit.
        let _g = pvtm_telemetry::fault::force_depth(3);
        let (mut tpl, out) = inverter();
        tpl.solve().expect("rescue rung 1 converges the inverter");
        assert!(tpl.voltage(out) > 0.95, "out = {}", tpl.voltage(out));
        assert_eq!(tpl.stats().rescue_attempts, 1);
        assert_eq!(tpl.stats().rescue_hits, 1);
        assert_eq!(tpl.stats().rescue_rungs, 1);
    }

    #[test]
    fn injection_past_the_last_rung_fails_the_solve() {
        let _l = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Depth 6 exhausts the 3 standard cold strategies + 3 rescue
        // rungs; depth 7 leaves one unused kill on top.
        let _g = pvtm_telemetry::fault::force_depth(7);
        let (mut tpl, _) = inverter();
        assert!(tpl.solve().is_err(), "all strategies injected to fail");
        assert_eq!(tpl.stats().rescue_attempts, 1);
        assert_eq!(tpl.stats().rescue_hits, 0);
        assert_eq!(tpl.stats().rescue_rungs, 3);
    }

    #[test]
    fn every_rescue_depth_between_ladders_converges() {
        let _l = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Depths 3..=5 land on rescue rungs 1..=3 for a cold solve;
        // every rung must converge the inverter on its own.
        for depth in 3..=5u32 {
            let _g = pvtm_telemetry::fault::force_depth(depth);
            let (mut tpl, out) = inverter();
            tpl.solve().unwrap_or_else(|e| panic!("depth {depth}: {e}"));
            assert!(tpl.voltage(out) > 0.95);
            assert_eq!(tpl.stats().rescue_hits, 1, "depth {depth}");
            assert_eq!(
                tpl.stats().rescue_rungs,
                u64::from(depth) - 2,
                "depth {depth}"
            );
        }
    }

    #[test]
    fn rescue_is_never_entered_on_healthy_solves() {
        let (mut tpl, _) = inverter();
        tpl.solve().expect("healthy solve");
        assert_eq!(tpl.stats().rescue_attempts, 0);
        assert_eq!(tpl.stats().rescue_rungs, 0);
    }
}
