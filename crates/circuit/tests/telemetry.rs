//! Solves outside a hand-held template report to telemetry like every
//! other DC solve, and a transient run reports its time steps' Newton
//! work.
//!
//! Telemetry state is process-global, so this check lives in its own
//! integration binary rather than beside unit tests that also solve.

use pvtm_circuit::{transient, Netlist, TransientOptions};
use pvtm_telemetry::{Mode, Report};

fn dc_solve_spans(report: &Report) -> Vec<u64> {
    report
        .spans
        .iter()
        .filter(|r| r.path == "dc.solve")
        .map(|r| r.count)
        .collect()
}

#[test]
fn netlist_solves_record_one_solve_and_one_span() {
    pvtm_telemetry::set_mode(Mode::Full);
    let mut ckt = Netlist::new();
    let top = ckt.node("top");
    let mid = ckt.node("mid");
    ckt.vsource("V1", top, Netlist::GROUND, 1.0);
    ckt.resistor("R1", top, mid, 1e3);
    ckt.capacitor("C1", mid, Netlist::GROUND, 1e-12);

    pvtm_telemetry::reset();
    ckt.solve_dc().expect("divider solves");
    let dc = pvtm_telemetry::snapshot();
    assert_eq!(dc.solver.solves, 1);
    assert_eq!(dc_solve_spans(&dc), [1]);

    // A transient run without an initial state starts from one DC solve;
    // its time steps are not DC solves.
    pvtm_telemetry::reset();
    transient::solve(&ckt, &TransientOptions::new(1e-9, 5e-9)).expect("transient runs");
    let report = pvtm_telemetry::snapshot();
    assert_eq!(report.solver.solves, 1);
    assert_eq!(dc_solve_spans(&report), [1]);

    // From its own DC point a transient does not move. From a discharged
    // capacitor it does, and the steps' Newton work reaches the counters
    // beside that of the DC point the state was taken from.
    pvtm_telemetry::reset();
    let mut state = ckt.solve_dc().expect("divider solves").state().to_vec();
    state[mid.index() - 1] = 0.0;
    let discharged = TransientOptions::new(1e-9, 5e-9).with_initial_state(state);
    transient::solve(&ckt, &discharged).expect("transient runs");
    let report = pvtm_telemetry::snapshot();
    assert_eq!(report.solver.solves, 1);
    assert_eq!(dc_solve_spans(&report), [1]);
    assert!(report.solver.newton_iterations > dc.solver.newton_iterations);
    assert!(report.solver.lu_factorizations > dc.solver.lu_factorizations);
}
